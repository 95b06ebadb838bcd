/**
 * @file
 * Tests for the multicore subsystem (src/multicore; DESIGN.md §15):
 * the N-core thermal network, the per-core controllers, the DVFS
 * ladder actuator, the budget coordinator, and the assembled engine.
 *
 * The load-bearing regressions:
 *  - a 1-core ChipModel is the paper's Fig. 3B network, its trajectory
 *    pinned bit-for-bit (the multicore network is a strict
 *    generalization of the single-core one, not a reimplementation);
 *  - lateral coupling is symmetric (mirrored workloads produce
 *    mirrored temperatures) and conservative (it moves heat, it does
 *    not create it);
 *  - the energy-balance audit provably fires on a seeded violation;
 *  - budget splits sum to the chip budget exactly, for every policy;
 *  - the adjustable-gain integral controller holds the setpoint within
 *    +-1 C through a plant-gain mismatch and a load step that makes
 *    the fixed-gain PID overshoot;
 *  - the engine's RunResult bytes match digests pinned from the serial
 *    engine, whatever the parallelFor pool width, and a run split at
 *    arbitrary points equals the unsplit run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "control/tuning.hh"
#include "dtm/actuator.hh"
#include "fault/fault.hh"
#include "multicore/budget_coordinator.hh"
#include "multicore/chip_model.hh"
#include "multicore/core_controller.hh"
#include "multicore/multicore_sim.hh"
#include "sim/policy_factory.hh"
#include "sim/sweep.hh"
#include "thermal/rc_model.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;
using namespace thermctl::multicore;

namespace
{

constexpr Seconds kDt = 1.0 / 1.5e9;

/** Disarm on scope exit so tests never leak an armed fault plan. */
struct ScopedDisarm
{
    ~ScopedDisarm() { fault::FaultInjector::instance().disarm(); }
};

PowerVector
rampPower(double base)
{
    PowerVector p;
    for (std::size_t i = 0; i < kNumStructures; ++i)
        p.value[i] = base + 0.07 * static_cast<double>(i);
    return p;
}

/** Digest of one core's block temperatures plus the sink. */
std::string
fig3bDigest(const TemperatureVector &blocks, Celsius sink)
{
    HashStream h;
    for (Celsius t : blocks.value)
        h.f64(t.value());
    h.f64(sink.value());
    return hashHex(h.digest());
}

} // namespace

// -------------------------------------------- single-core degeneration

TEST(ChipModel, SingleCoreFig3BTrajectoryPinned)
{
    // Pinned from the standalone Fig. 3B model this class replaced:
    // the one-core network must keep its trajectory bit-for-bit.
    Floorplan fp;
    ChipModel chip(fp, ThermalConfig{}, kDt, MulticoreConfig{});

    // Per-cycle stepping under a time-varying power input.
    for (int k = 0; k < 2000; ++k)
        chip.step({rampPower(0.4 + 0.3 * std::sin(0.01 * k))});
    EXPECT_EQ(fig3bDigest(chip.temperatures(0), chip.heatsinkTemperature()),
              "95f74da78e0ea1b0");

    // Span stepping: 300 000 cycles sub-stepped in 1 us chunks.
    chip.stepSpan({rampPower(1.2)}, 300000);
    EXPECT_EQ(fig3bDigest(chip.temperatures(0), chip.heatsinkTemperature()),
              "e8b25cd9840dd29b");
}

TEST(ChipModel, CouplingListEmptyWhenDisabledOrSingleCore)
{
    Floorplan fp;
    ThermalConfig tc;

    MulticoreConfig one;
    one.num_cores = 1;
    EXPECT_TRUE(ChipModel(fp, tc, kDt, one).couplingPaths().empty());

    MulticoreConfig uncoupled;
    uncoupled.num_cores = 4;
    uncoupled.coupling_resistance = 0.0;
    EXPECT_TRUE(
        ChipModel(fp, tc, kDt, uncoupled).couplingPaths().empty());

    MulticoreConfig coupled;
    coupled.num_cores = 4;
    coupled.coupling_resistance = 4.0;
    const ChipModel chip(fp, tc, kDt, coupled);
    EXPECT_FALSE(chip.couplingPaths().empty());
    for (const CouplingPath &cp : chip.couplingPaths()) {
        EXPECT_LT(cp.block, kNumStructures);
        EXPECT_GT(cp.conductance, 0.0);
    }
}

// ----------------------------------------------------- coupling physics

TEST(ChipModel, CouplingIsSymmetricUnderMirroredWorkloads)
{
    Floorplan fp;
    ThermalConfig tc;
    MulticoreConfig mc;
    mc.num_cores = 2;
    mc.coupling_resistance = 2.0;

    const PowerVector hot = rampPower(2.0);
    const PowerVector cold{}; // zeros

    ChipModel a(fp, tc, kDt, mc); // core 0 hot
    ChipModel b(fp, tc, kDt, mc); // core 1 hot (mirror image)
    for (int k = 0; k < 5000; ++k) {
        a.step({hot, cold});
        b.step({cold, hot});
    }

    // The network is symmetric under core exchange, so the mirrored
    // drive must produce mirrored temperatures (tolerance only for the
    // sink-flow summation order, which differs between the two runs).
    for (StructureId id : kAllStructures) {
        EXPECT_NEAR(a.temperatures(0)[id].value(),
                    b.temperatures(1)[id].value(), 1e-9)
            << structureName(id);
        EXPECT_NEAR(a.temperatures(1)[id].value(),
                    b.temperatures(0)[id].value(), 1e-9)
            << structureName(id);
    }
    EXPECT_NEAR(a.heatsinkTemperature().value(),
                b.heatsinkTemperature().value(), 1e-9);

    // Heat flowed from the hot core to the cold one: the driven core is
    // hotter everywhere, and the idle core's coupled boundary blocks
    // rose above their start.
    for (const CouplingPath &cp : a.couplingPaths()) {
        const auto id = static_cast<StructureId>(cp.block);
        EXPECT_GT(a.temperatures(0)[id].value(),
                  a.temperatures(1)[id].value());
        EXPECT_GT(a.temperatures(1)[id].value(), tc.t_base.value());
    }
}

TEST(ChipModel, CouplingWarmsTheIdleNeighbour)
{
    Floorplan fp;
    ThermalConfig tc;
    const PowerVector hot = rampPower(2.0);
    const PowerVector cold{};

    MulticoreConfig coupled;
    coupled.num_cores = 2;
    coupled.coupling_resistance = 2.0;
    MulticoreConfig isolated = coupled;
    isolated.coupling_resistance = 0.0;

    ChipModel with(fp, tc, kDt, coupled);
    ChipModel without(fp, tc, kDt, isolated);
    with.stepSpan({hot, cold}, 1500000);    // 1 ms
    without.stepSpan({hot, cold}, 1500000);

    // The idle core's boundary blocks end hotter when coupled to a hot
    // neighbour; the hot core sheds a little into them.
    ASSERT_FALSE(with.couplingPaths().empty());
    for (const CouplingPath &cp : with.couplingPaths()) {
        const auto id = static_cast<StructureId>(cp.block);
        EXPECT_GT(with.temperatures(1)[id].value(),
                  without.temperatures(1)[id].value());
        EXPECT_LT(with.temperatures(0)[id].value(),
                  without.temperatures(0)[id].value());
    }
}

TEST(ChipModel, WarmStartLeavesTheQuasiStaticSinkAlone)
{
    Floorplan fp;
    ThermalConfig tc;
    MulticoreConfig mc;
    mc.num_cores = 2;

    ChipModel chip(fp, tc, kDt, mc);
    const Celsius sink_before = chip.heatsinkTemperature();
    const PowerVector p = rampPower(1.0);
    chip.warmStart({p, p});

    // The sink's time constant (~20 s) dwarfs any simulated span, so a
    // warm start must not move it; blocks jump to their own P*R above.
    EXPECT_EQ(chip.heatsinkTemperature().value(), sink_before.value());
    for (StructureId id : kAllStructures) {
        const std::size_t i = static_cast<std::size_t>(id);
        EXPECT_DOUBLE_EQ(
            chip.temperatures(0)[id].value(),
            sink_before.value()
                + p.value[i] * fp.block(id).resistance.value());
    }
}

// ------------------------------------------------- energy-balance audit

#if THERMCTL_INVARIANTS_ENABLED && THERMCTL_FAULTS_ENABLED
TEST(ChipModel, EnergyAuditFiresOnSeededViolation)
{
    ScopedDisarm disarm;
    Floorplan fp;
    ThermalConfig tc;
    MulticoreConfig mc;
    mc.num_cores = 2;

    const PowerVector p = rampPower(1.0);

    // Clean span: the audit holds.
    {
        ChipModel chip(fp, tc, kDt, mc);
        EXPECT_NO_THROW(chip.stepSpan({p, p}, 150000));
    }

    // Seed unaccounted stored energy inside the audited span: the
    // balance invariant must fire.
    fault::FaultInjector::instance().arm(
        fault::FaultPlan::parse("multicore.energy=abort"));
    ChipModel chip(fp, tc, kDt, mc);
    EXPECT_THROW(chip.stepSpan({p, p}, 150000), PanicError);
}
#endif

// ------------------------------------------------------------ validation

TEST(ChipModel, RejectsNonsenseConfigs)
{
    Floorplan fp;
    ThermalConfig tc;

    MulticoreConfig zero;
    zero.num_cores = 0;
    EXPECT_THROW(ChipModel(fp, tc, kDt, zero), FatalError);

    MulticoreConfig too_many;
    too_many.num_cores = kMaxCores + 1;
    EXPECT_THROW(ChipModel(fp, tc, kDt, too_many), FatalError);

    MulticoreConfig ok;
    ok.num_cores = 2;
    EXPECT_THROW(ChipModel(fp, tc, 0.0, ok), FatalError);
}

TEST(CoreController, AdjustableIntegralRejectsBadConfigs)
{
    AdjustableIntegralConfig bad_gain;
    bad_gain.loop_gain = 0.0;
    EXPECT_THROW(AdjustableIntegralController{bad_gain}, FatalError);

    AdjustableIntegralConfig bad_band;
    bad_band.sensitivity_min = 10.0;
    bad_band.sensitivity_max = 1.0;
    EXPECT_THROW(AdjustableIntegralController{bad_band}, FatalError);

    AdjustableIntegralConfig bad_init;
    bad_init.initial_sensitivity = 1000.0;
    EXPECT_THROW(AdjustableIntegralController{bad_init}, FatalError);

    AdjustableIntegralConfig bad_filter;
    bad_filter.sensitivity_filter = 0.0;
    EXPECT_THROW(AdjustableIntegralController{bad_filter}, FatalError);
}

TEST(DvfsLadder, RejectsBadConfigs)
{
    EXPECT_THROW(DvfsLadder(0), FatalError);
    EXPECT_THROW(DvfsLadder(7, 0.0), FatalError);
    EXPECT_THROW(DvfsLadder(7, 1.0), FatalError);
}

// ----------------------------------------------------------- DVFS ladder

TEST(DvfsLadder, LevelMapsLinearlyBetweenFloorAndNominal)
{
    DvfsLadder ladder(7, 0.3);
    EXPECT_EQ(ladder.level(), 7u); // starts at nominal
    EXPECT_DOUBLE_EQ(ladder.freqScale(7), 1.0);
    EXPECT_DOUBLE_EQ(ladder.freqScale(0), 0.3);
    EXPECT_DOUBLE_EQ(ladder.freqScale(4), 0.3 + 0.7 * 4.0 / 7.0);
    // Out-of-range levels clamp.
    EXPECT_DOUBLE_EQ(ladder.freqScale(99), 1.0);

    // Duty quantizes to the nearest level.
    ladder.setDuty(0.5);
    EXPECT_EQ(ladder.level(), 4u); // round(3.5)
    ladder.setDuty(0.0);
    EXPECT_EQ(ladder.level(), 0u);
    ladder.setDuty(2.0); // clamped
    EXPECT_EQ(ladder.level(), 7u);
}

TEST(DvfsLadder, PowerScaleFollowsFV2)
{
    DvfsLadder ladder(7, 0.3);
    ladder.setLevel(3);
    const double f = ladder.freqScale();
    const double alpha = 0.3;
    const double v = alpha + (1.0 - alpha) * f;
    EXPECT_DOUBLE_EQ(ladder.voltageRatio(alpha), v);
    EXPECT_DOUBLE_EQ(ladder.powerScale(alpha), f * v * v);
}

TEST(DvfsLadder, ClockGateExecutesTheScaledFractionEvenly)
{
    for (std::uint32_t level : {0u, 2u, 5u, 7u}) {
        DvfsLadder ladder(7, 0.3);
        ladder.setLevel(level);
        const double s = ladder.freqScale();

        const int n = 70000;
        int edges = 0;
        int window_edges = 0;
        for (int i = 0; i < n; ++i) {
            if (ladder.clockGate()) {
                ++edges;
                ++window_edges;
            }
            // Evenness: every 100-cycle window carries its share.
            if ((i + 1) % 100 == 0) {
                EXPECT_NEAR(window_edges, 100.0 * s, 2.0);
                window_edges = 0;
            }
        }
        EXPECT_NEAR(static_cast<double>(edges) / n, s, 1e-3);
    }
}

// ------------------------------------------------------ budget coordinator

TEST(BudgetCoordinator, EverySplitPolicyConservesTheBudget)
{
    const std::vector<Watts> demand = {31.0, 0.0, 18.5, 7.25};
    const std::vector<Celsius> hottest = {104.0, 111.9, 96.5, 108.0};
    const Watts budget = 55.0;

    for (BudgetPolicy policy :
         {BudgetPolicy::Uniform, BudgetPolicy::DemandProportional,
          BudgetPolicy::ThermalHeadroom}) {
        const BudgetCoordinator coord(budget, policy, 111.8);
        const std::vector<Watts> share = coord.split(demand, hottest);
        ASSERT_EQ(share.size(), demand.size());
        double sum = 0.0;
        for (Watts w : share) {
            EXPECT_GE(w.value(), 0.0) << budgetPolicyName(policy);
            sum += w.value();
        }
        EXPECT_DOUBLE_EQ(sum, budget.value())
            << budgetPolicyName(policy);
    }

    // Degenerate single-core chip: the whole budget, exactly.
    const BudgetCoordinator one(budget, BudgetPolicy::Uniform, 111.8);
    const std::vector<Watts> solo = one.split({12.0}, {100.0});
    ASSERT_EQ(solo.size(), 1u);
    EXPECT_EQ(solo[0].value(), budget.value());
}

TEST(BudgetCoordinator, PoliciesRouteWattsAsDocumented)
{
    const std::vector<Watts> demand = {30.0, 5.0, 20.0, 10.0};
    const std::vector<Celsius> hottest = {100.0, 111.0, 95.0, 108.0};
    const Watts budget = 40.0;

    const auto uniform =
        BudgetCoordinator(budget, BudgetPolicy::Uniform, 111.8)
            .split(demand, hottest);
    for (Watts w : uniform)
        EXPECT_DOUBLE_EQ(w.value(), 10.0);

    // Demand-proportional: the hungriest core gets the biggest share.
    const auto by_demand =
        BudgetCoordinator(budget, BudgetPolicy::DemandProportional,
                          111.8)
            .split(demand, hottest);
    EXPECT_GT(by_demand[0].value(), by_demand[3].value());
    EXPECT_GT(by_demand[3].value(), by_demand[1].value());

    // Thermal headroom: the coolest core gets the biggest share, the
    // nearly-critical core is starved.
    const auto by_headroom =
        BudgetCoordinator(budget, BudgetPolicy::ThermalHeadroom, 111.8)
            .split(demand, hottest);
    EXPECT_GT(by_headroom[2].value(), by_headroom[0].value());
    EXPECT_GT(by_headroom[0].value(), by_headroom[1].value());
}

TEST(BudgetCoordinator, RejectsNonsense)
{
    EXPECT_THROW(
        BudgetCoordinator(0.0, BudgetPolicy::Uniform, 111.8),
        FatalError);
    const BudgetCoordinator coord(10.0, BudgetPolicy::Uniform, 111.8);
    EXPECT_THROW(coord.split({}, {}), PanicError);
    EXPECT_THROW(coord.split({1.0, 2.0}, {100.0}), PanicError);
}

// ------------------------------------- adjustable vs fixed gain control

namespace
{

/**
 * A discrete first-order thermal plant T' = (T_amb + gain * u - T) / tau
 * whose true gain the controller under test does NOT know. T_amb models
 * the uncontrolled load (neighbour heating, ambient): stepping it is
 * the "step-power workload".
 */
struct FirstOrderPlant
{
    double t_amb;
    double gain;
    double tau;
    double dt;
    double temp;

    double
    step(double u)
    {
        temp += (dt / tau) * (t_amb + gain * u - temp);
        return temp;
    }
};

/** Drive `update` against the plant for `samples` steps, carrying the
 *  duty in `u`; return max |T - setpoint| over the samples after
 *  `skip`. */
template <typename Controller>
double
runLoop(FirstOrderPlant &plant, Controller &ctrl, double &u,
        double setpoint, int samples, int skip)
{
    double worst = 0.0;
    for (int k = 0; k < samples; ++k) {
        const double t = plant.step(u);
        u = ctrl.update(Celsius(t));
        if (k >= skip)
            worst = std::max(worst, std::abs(t - setpoint));
    }
    return worst;
}

PidConfig
tunedPid(double plant_gain, double tau, double dt, double setpoint)
{
    const FopdtPlant nominal{plant_gain, tau, dt / 2.0};
    PidConfig pc = tuneLoopShaping(ControllerKind::PID, nominal);
    pc.setpoint = setpoint;
    pc.dt = dt;
    pc.out_min = 0.0;
    pc.out_max = 1.0;
    pc.integral_init = pc.out_max;
    return pc;
}

} // namespace

TEST(CoreController, AdjustableGainHoldsWhereFixedPidOvershoots)
{
    // The Rao et al. scenario: the fixed PID's gains were tuned against
    // a nominal plant whose gain is 4x below the truth (the same tuning
    // deployed on a corner of the chip where the thermal sensitivity is
    // far from nominal), so its loop reacts 4x too hard. The adjustable
    // integral loop estimates the true sensitivity online and
    // re-normalizes its gain every sample.
    const double dt = 1e-3;
    const double tau = 12.0 * dt;
    const double g_true = 50.0;
    const double setpoint = 100.0;

    FixedPidCoreController fixed(
        tunedPid(g_true / 4.0, tau, dt, setpoint));
    FixedPidCoreController nominal(
        tunedPid(g_true, tau, dt, setpoint));

    AdjustableIntegralConfig ac;
    ac.setpoint = setpoint;
    ac.initial_sensitivity = 10.0; // ~2.4x off: must adapt down
    AdjustableIntegralController adaptive(ac);

    // Phase 1: pull the hot plant (steady state 110 at full duty) down
    // onto the setpoint and settle. Phase 2: a step-power workload
    // change (the plant runs 20 degrees hotter at any given duty).
    FirstOrderPlant start{60.0, g_true, tau, dt, 110.0};
    FirstOrderPlant plant_fixed = start;
    FirstOrderPlant plant_nom = start;
    FirstOrderPlant plant_adj = start;
    double u_fixed = 1.0, u_nom = 1.0, u_adj = 1.0;

    const double settle_fixed =
        runLoop(plant_fixed, fixed, u_fixed, setpoint, 2000, 500);
    const double settle_nom =
        runLoop(plant_nom, nominal, u_nom, setpoint, 2000, 500);
    const double settle_adj =
        runLoop(plant_adj, adaptive, u_adj, setpoint, 2000, 500);

    plant_fixed.t_amb = 80.0;
    plant_adj.t_amb = 80.0;
    const double step_fixed =
        runLoop(plant_fixed, fixed, u_fixed, setpoint, 2000, 200);
    const double step_adj =
        runLoop(plant_adj, adaptive, u_adj, setpoint, 2000, 200);

    // The adaptive loop holds the band through both the settle and the
    // load step; the mismatched fixed loop oscillates past it in both.
    EXPECT_LE(settle_adj, 1.0);
    EXPECT_LE(step_adj, 1.0);
    EXPECT_GT(settle_fixed, 1.0);
    EXPECT_GT(step_fixed, 1.0);

    // The failure is the mismatch, not the PID: the same tuning recipe
    // fed the true gain holds the band where the mismatched one leaves
    // it by degrees.
    EXPECT_LE(settle_nom, 1.0);
    EXPECT_GT(settle_fixed, 2.0 * settle_nom);

    // The sensitivity estimate moved from its wrong prior toward the
    // plant's true per-sample sensitivity (dt/tau * gain ~ 4.2).
    EXPECT_LT(adaptive.sensitivity(), 6.0);
    EXPECT_GT(adaptive.sensitivity(), 1.0);
}

// ------------------------------------------------------ assembled engine

TEST(MulticoreSimulator, RunsAndAggregatesSaneChipStats)
{
    SimConfig cfg;
    cfg.workload = specProfile("186.crafty");
    cfg.policy.kind = DtmPolicyKind::PerCorePid;
    cfg.multicore.num_cores = 2;

    MulticoreSimulator sim(cfg);
    EXPECT_EQ(sim.numCores(), 2u);
    sim.warmUp(20000);
    sim.run(60000);

    const ChipStats &s = sim.stats();
    EXPECT_EQ(s.nominal_cycles, 60000u);
    EXPECT_GT(s.samples, 0u);
    EXPECT_GT(s.committed, 0u);
    // Each core executes at most one cycle per nominal cycle.
    EXPECT_LE(s.executed_cycles, 2u * 60000u);
    EXPECT_GT(s.executed_cycles, 0u);
    // Temperatures live in the physical band around the paper's base.
    EXPECT_GT(s.max_temperature.value(), 100.0);
    EXPECT_LT(s.max_temperature.value(), 125.0);
    for (std::size_t c = 0; c < sim.numCores(); ++c) {
        EXPECT_GE(sim.freqScale(c), 0.3);
        EXPECT_LE(sim.freqScale(c), 1.0);
    }
}

TEST(MulticoreSimulator, BudgetCapReducesChipPower)
{
    SimConfig cfg;
    cfg.workload = specProfile("186.crafty");
    cfg.policy.kind = DtmPolicyKind::None;
    cfg.multicore.num_cores = 4;

    SimConfig capped = cfg;
    capped.multicore.chip_budget = 40.0;
    capped.multicore.budget_policy = BudgetPolicy::DemandProportional;

    const auto chipPower = [](const SimConfig &c) {
        MulticoreSimulator sim(c);
        sim.warmUp(20000);
        sim.run(60000);
        double watt_cycles = 0.0;
        for (const auto &st : sim.stats().structures)
            watt_cycles += st.power_sum;
        return watt_cycles
            / static_cast<double>(sim.stats().nominal_cycles);
    };

    const double uncapped_w = chipPower(cfg);
    const double capped_w = chipPower(capped);
    EXPECT_GT(uncapped_w, 80.0); // 4 hot cores, ~26 W each
    EXPECT_LT(capped_w, 0.75 * uncapped_w);
}

TEST(MulticoreSimulator, RejectsSingleCorePolicies)
{
    SimConfig cfg;
    cfg.workload = specProfile("186.crafty");
    cfg.policy.kind = DtmPolicyKind::Toggle1;
    cfg.multicore.num_cores = 2;
    EXPECT_THROW(MulticoreSimulator{cfg}, FatalError);
}

TEST(PolicyFactory, MulticoreNamesRoundTrip)
{
    EXPECT_TRUE(isMulticorePolicy(DtmPolicyKind::PerCorePid));
    EXPECT_TRUE(isMulticorePolicy(DtmPolicyKind::AdjIntegral));
    EXPECT_FALSE(isMulticorePolicy(DtmPolicyKind::PID));
    EXPECT_FALSE(isMulticorePolicy(DtmPolicyKind::None));

    for (BudgetPolicy p :
         {BudgetPolicy::Uniform, BudgetPolicy::DemandProportional,
          BudgetPolicy::ThermalHeadroom}) {
        BudgetPolicy out;
        ASSERT_TRUE(parseBudgetPolicy(budgetPolicyName(p), out));
        EXPECT_EQ(out, p);
    }
    BudgetPolicy out;
    EXPECT_FALSE(parseBudgetPolicy("round-robin", out));
}

// ------------------------------------------------------------ parallelFor

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    for (std::size_t n : {0u, 1u, 2u, 3u, 16u, 1000u}) {
        std::vector<std::atomic<int>> runs(n);
        parallelFor(n, [&](std::size_t i) { runs[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ParallelFor, PanicReachesTheCaller)
{
    EXPECT_THROW(parallelFor(64,
                             [](std::size_t i) {
                                 if (i == 17)
                                     panic("index ", i, " failed");
                             }),
                 PanicError);
    // The pool survives: the next call runs every index.
    std::atomic<std::size_t> sum{0};
    parallelFor(64, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ParallelFor, ConcurrentAndNestedCallsComplete)
{
    constexpr std::size_t kCallers = 4, kOuter = 8, kInner = 8;
    std::vector<std::atomic<int>> runs(kCallers * kOuter * kInner);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            parallelFor(kOuter, [&](std::size_t o) {
                parallelFor(kInner, [&](std::size_t i) {
                    runs[(c * kOuter + o) * kInner + i].fetch_add(1);
                });
            });
        });
    }
    for (auto &t : callers)
        t.join();
    for (const auto &r : runs)
        EXPECT_EQ(r.load(), 1);
}

TEST(ParallelFor, WidthCapsTheCallsInFlight)
{
    // Each call lingers so that idle helpers have time to join; the
    // high-water mark of calls in flight must still stay within width.
    for (std::size_t width : {1u, 2u, 3u}) {
        std::atomic<int> in_flight{0}, peak{0};
        parallelFor(
            24,
            [&](std::size_t) {
                const int now = in_flight.fetch_add(1) + 1;
                int seen = peak.load();
                while (now > seen && !peak.compare_exchange_weak(seen, now))
                    ;
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                in_flight.fetch_sub(1);
            },
            width);
        EXPECT_LE(peak.load(), static_cast<int>(width)) << "width " << width;
    }

    // A capped call nested inside a capped call finishes.
    constexpr std::size_t kOuter = 6, kInner = 6;
    std::vector<std::atomic<int>> runs(kOuter * kInner);
    parallelFor(
        kOuter,
        [&](std::size_t o) {
            parallelFor(
                kInner,
                [&](std::size_t i) { runs[o * kInner + i].fetch_add(1); },
                2);
        },
        2);
    for (const auto &r : runs)
        EXPECT_EQ(r.load(), 1);
}

// ------------------------------------------------------------ determinism

namespace
{

SimConfig
chipPoint(const char *bench, DtmPolicyKind kind, std::uint32_t cores)
{
    SimConfig cfg;
    cfg.workload = specProfile(bench);
    cfg.policy.kind = kind;
    cfg.multicore.num_cores = cores;
    return cfg;
}

/** FNV-1a digest of the serialized RunResult, as 16 hex digits. */
std::string
resultDigest(const SimConfig &cfg, const RunProtocol &proto)
{
    const std::string bytes =
        serializeRunResult(runMulticoreOne(cfg, proto));
    return hashHex(HashStream{}.bytes(bytes.data(), bytes.size()).digest());
}

void
expectSameStats(const ChipStats &a, const ChipStats &b)
{
    EXPECT_EQ(a.nominal_cycles, b.nominal_cycles);
    EXPECT_EQ(a.executed_cycles, b.executed_cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.emergency_cycles, b.emergency_cycles);
    EXPECT_EQ(a.stress_cycles, b.stress_cycles);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.freq_scale_sum, b.freq_scale_sum);
    EXPECT_EQ(a.max_temperature.value(), b.max_temperature.value());
    for (std::size_t j = 0; j < kNumStructures; ++j) {
        const ChipStructureStats &x = a.structures[j];
        const ChipStructureStats &y = b.structures[j];
        EXPECT_EQ(x.temp_sum, y.temp_sum) << j;
        EXPECT_EQ(x.temp_max.value(), y.temp_max.value()) << j;
        EXPECT_EQ(x.emergency_cycles, y.emergency_cycles) << j;
        EXPECT_EQ(x.stress_cycles, y.stress_cycles) << j;
        EXPECT_EQ(x.power_sum, y.power_sum) << j;
    }
}

} // namespace

// The digests below were computed by the serial engine, which ticked
// every core cycle by cycle on one thread. The windowed engine must
// reproduce those bytes exactly on any number of CPUs.

TEST(MulticoreDeterminism, TwoCorePidMatchesPinnedDigest)
{
    const SimConfig cfg = chipPoint("186.crafty", DtmPolicyKind::PID, 2);
    EXPECT_EQ(resultDigest(cfg, {10000, 30000}), "043eb05e882e52d8");
}

TEST(MulticoreDeterminism, SixteenCoreHeadroomBudgetMatchesPinnedDigest)
{
    SimConfig cfg = chipPoint("176.gcc", DtmPolicyKind::PerCorePid, 16);
    cfg.multicore.coupling_resistance = 4.0;
    cfg.multicore.budget_policy = BudgetPolicy::ThermalHeadroom;
    const RunProtocol proto{6000, 24000};

    // The budget binds: the same chip without it runs at a higher duty.
    SimConfig free_cfg = cfg;
    free_cfg.multicore.chip_budget = 0.0;
    cfg.multicore.chip_budget = 160.0;
    EXPECT_LT(runMulticoreOne(cfg, proto).mean_duty,
              runMulticoreOne(free_cfg, proto).mean_duty);

    EXPECT_EQ(resultDigest(cfg, proto), "a1fe6916ab9191e2");
}

TEST(MulticoreDeterminism, AdjustableIntegralMatchesPinnedDigest)
{
    const SimConfig cfg =
        chipPoint("186.crafty", DtmPolicyKind::AdjIntegral, 4);
    EXPECT_EQ(resultDigest(cfg, {10000, 30000}), "be31d10fa5120daf");
}

TEST(MulticoreDeterminism, OddWarmupMatchesPinnedDigest)
{
    // 7777 splits into 3888 + 3889 around the warm start, and neither
    // half nor the 5003-cycle measurement ends on a window boundary.
    const SimConfig cfg =
        chipPoint("179.art", DtmPolicyKind::PerCorePid, 3);
    EXPECT_EQ(resultDigest(cfg, {7777, 5003}), "8e2576e0102e1ee1");
}

TEST(MulticoreDeterminism, SplitRunEqualsUnsplitRun)
{
    SimConfig cfg = chipPoint("186.crafty", DtmPolicyKind::PerCorePid, 3);
    cfg.multicore.chip_budget = 50.0;
    MulticoreSimulator split(cfg);
    MulticoreSimulator whole(cfg);
    split.warmUp(2001);
    whole.warmUp(2001);
    split.run(1);
    split.run(999);
    split.run(1500);
    whole.run(2500);
    expectSameStats(split.stats(), whole.stats());
    EXPECT_EQ(split.committedTotal(), whole.committedTotal());
    EXPECT_EQ(split.stats().nominal_cycles, 2500u);
}

TEST(MulticoreSimulator, RejectsZeroSampleInterval)
{
    SimConfig cfg = chipPoint("186.crafty", DtmPolicyKind::PerCorePid, 2);
    cfg.dtm.sample_interval = 0;
    EXPECT_THROW(MulticoreSimulator{cfg}, FatalError);
}

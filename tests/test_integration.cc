/**
 * @file
 * End-to-end integration tests reproducing the paper's key claims in
 * miniature: CT-DTM holds the chip out of thermal emergency with far
 * less performance loss than fixed-response toggling, the boxcar
 * power proxy misses localized emergencies that the RC model sees, and
 * the simplified per-block network (Fig. 3C) tracks the detailed one
 * (Fig. 3B) closely on a live power trace.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/stats.hh"
#include "multicore/chip_model.hh"
#include "sim/experiment.hh"
#include "thermal/boxcar.hh"
#include "workload/spec_profiles.hh"

namespace thermctl
{
namespace
{

RunProtocol
shortProtocol()
{
    RunProtocol proto;
    proto.warmup_cycles = 150000;
    proto.measure_cycles = 500000;
    return proto;
}

class DtmPolicyInvariant
    : public ::testing::TestWithParam<DtmPolicyKind>
{
};

/**
 * The paper's hard requirement: every DTM policy except toggle2 must
 * never let any structure exceed the emergency threshold, on the
 * hottest steady benchmark.
 */
TEST_P(DtmPolicyInvariant, NoEmergenciesOnHottestBenchmark)
{
    const DtmPolicyKind kind = GetParam();
    ExperimentRunner runner(shortProtocol());
    DtmPolicySettings policy;
    policy.kind = kind;
    auto r = runner.runOne(specProfile("301.apsi"), policy);
    EXPECT_DOUBLE_EQ(r.emergency_fraction, 0.0)
        << dtmPolicyKindName(kind);
    SimConfig cfg;
    EXPECT_LE(r.max_temperature, cfg.thermal.t_emergency)
        << dtmPolicyKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(Policies, DtmPolicyInvariant,
                         ::testing::Values(DtmPolicyKind::Toggle1,
                                           DtmPolicyKind::Manual,
                                           DtmPolicyKind::P,
                                           DtmPolicyKind::PI,
                                           DtmPolicyKind::PID));

TEST(Integration, CtDtmBeatsFixedToggling)
{
    // The headline: PI/PID cut the performance loss of DTM by a large
    // factor relative to toggle1 while still eliminating emergencies.
    ExperimentRunner runner(shortProtocol());
    const auto profile = specProfile("186.crafty");

    DtmPolicySettings s;
    s.kind = DtmPolicyKind::None;
    const double base_ipc = runner.runOne(profile, s).ipc;

    s.kind = DtmPolicyKind::Toggle1;
    auto t1 = runner.runOne(profile, s);
    s.kind = DtmPolicyKind::PID;
    auto pid = runner.runOne(profile, s);

    const double loss_t1 = 1.0 - t1.ipc / base_ipc;
    const double loss_pid = 1.0 - pid.ipc / base_ipc;
    EXPECT_GT(loss_t1, 0.2);
    // At least a 50% reduction in performance loss (the paper: 65%).
    EXPECT_LT(loss_pid, 0.5 * loss_t1);
    EXPECT_DOUBLE_EQ(pid.emergency_fraction, 0.0);
}

TEST(Integration, Toggle2CannotStopBurstyEmergencies)
{
    // toggle2 halves fetch but cannot stop fetching entirely, so the
    // bursty art profile still reaches emergency (paper Section 2.1).
    ExperimentRunner runner(shortProtocol());
    DtmPolicySettings s;
    s.kind = DtmPolicyKind::Toggle2;
    auto r = runner.runOne(specProfile("179.art"), s);
    EXPECT_GT(r.emergency_fraction, 0.0);
}

TEST(Integration, PidHoldsTemperatureNearSetpoint)
{
    // With the PI/PID setpoint at 111.6 and emergency at 111.8, the
    // controller keeps the hottest structure pinned within the band:
    // above the trigger floor, never across the emergency line.
    SimConfig cfg;
    cfg.workload = specProfile("191.fma3d");
    cfg.policy.kind = DtmPolicyKind::PID;
    Simulator sim(cfg);
    sim.warmUp(200000);

    Celsius max_seen = 0.0;
    Accumulator hottest;
    sim.setProbe(
        [&](const Simulator &s, Cycle) {
            const Celsius t = s.thermal().temperatures().maxHotspot();
            hottest.add(t);
            max_seen = std::max(max_seen, t);
        },
        1000);
    sim.run(400000);

    EXPECT_LE(max_seen, cfg.thermal.t_emergency);
    // Time-average of the hottest structure sits near the setpoint.
    EXPECT_NEAR(hottest.mean(), cfg.policy.ct_setpoint, 0.25);
}

TEST(Integration, LowBenchmarksNeverEngageDtm)
{
    ExperimentRunner runner(shortProtocol());
    DtmPolicySettings s;
    s.kind = DtmPolicyKind::PID;
    auto r = runner.runOne(specProfile("164.gzip"), s);
    // Cool benchmark: the controller stays quiescent and costs nothing.
    EXPECT_NEAR(r.mean_duty, 1.0, 1e-9);
    DtmPolicySettings none;
    none.kind = DtmPolicyKind::None;
    auto base = runner.runOne(specProfile("164.gzip"), none);
    EXPECT_NEAR(r.ipc, base.ipc, 0.02 * base.ipc);
}

TEST(Integration, CategoriesReproduceUnderClassifier)
{
    // Spot-check one representative per category (the full 18-benchmark
    // sweep lives in bench/table5_categories). Band-edge categories need
    // the full protocol: stress fractions shift with window length.
    RunProtocol proto;
    proto.warmup_cycles = 300000;
    proto.measure_cycles = 1000000;
    ExperimentRunner runner(proto);
    DtmPolicySettings none;
    none.kind = DtmPolicyKind::None;
    const std::pair<const char *, ThermalCategory> cases[] = {
        {"186.crafty", ThermalCategory::Extreme},
        {"177.mesa", ThermalCategory::High},
        {"168.wupwise", ThermalCategory::Medium},
        {"164.gzip", ThermalCategory::Low},
    };
    for (const auto &[name, expected] : cases) {
        auto r = runner.runOne(specProfile(name), none);
        EXPECT_EQ(classifyThermalBehaviour(r), expected) << name;
    }
}

TEST(Integration, ChipWideProxyMissesLocalizedEmergencies)
{
    // Paper Section 6 / Table 10 in miniature: drive the RC model and a
    // chip-wide boxcar proxy from the same simulation; the proxy (47 W
    // trigger) misses essentially all localized emergency cycles.
    SimConfig cfg;
    cfg.workload = specProfile("186.crafty");
    Simulator sim(cfg);
    ChipBoxcarProxy proxy(10000, 47.0);
    ProxyComparison cmp;
    sim.warmUp(150000);
    for (int i = 0; i < 300000; ++i) {
        sim.tick();
        proxy.add(sim.lastPower().total());
        const bool hot = sim.thermal().temperatures().maxHotspot()
            > cfg.thermal.t_emergency;
        cmp.record(hot, proxy.triggered());
    }
    EXPECT_GT(cmp.reference_emergencies, 1000u);
    EXPECT_GT(cmp.missRate(), 0.9);
}

TEST(Integration, SimplifiedModelTracksDetailedNetwork)
{
    // Paper Section 4.3: dropping the tangential resistances and freezing
    // the heatsink (Fig. 3B -> Fig. 3C) costs very little accuracy. Drive
    // both networks with the identical per-cycle power of a live run,
    // starting from the same warmed state, and bound every hot-spot
    // block's worst-case disagreement by 15% of its smallest rise above
    // the base temperature over the window (the isolated-block bound of
    // FullRC.MatchesSimplifiedWhenIsolated).
    SimConfig cfg;
    cfg.workload = specProfile("186.crafty");
    Simulator sim(cfg);
    multicore::ChipModel full(sim.floorplan(), cfg.thermal,
                              cfg.power.tech.cycleSeconds(),
                              MulticoreConfig{});
    sim.warmUp(120000);
    full.setTemperatures(0, sim.thermal().temperatures());

    std::array<double, kNumHotspotStructures> max_diff{};
    std::array<double, kNumHotspotStructures> min_rise{};
    min_rise.fill(std::numeric_limits<double>::max());
    std::vector<PowerVector> power(1);
    for (int c = 0; c < 300000; ++c) {
        sim.tick();
        power[0] = sim.lastPower();
        full.step(power);
        const TemperatureVector &ts = sim.thermal().temperatures();
        const TemperatureVector &tf = full.temperatures(0);
        for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
            max_diff[i] =
                std::max(max_diff[i], std::abs(ts.value[i] - tf.value[i]));
            min_rise[i] = std::min(
                min_rise[i], (ts.value[i] - cfg.thermal.t_base).value());
        }
    }
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        EXPECT_GT(min_rise[i], 0.0)
            << structureName(static_cast<StructureId>(i));
        EXPECT_LE(max_diff[i], 0.15 * min_rise[i])
            << structureName(static_cast<StructureId>(i));
    }
}

} // namespace
} // namespace thermctl

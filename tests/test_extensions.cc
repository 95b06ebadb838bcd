/**
 * @file
 * Tests for the Section 2.1 auxiliary DTM mechanisms (fetch throttling,
 * speculation control, voltage/frequency scaling) and the grid-refined
 * thermal model.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"
#include "thermal/grid_model.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic.hh"

namespace thermctl
{
namespace
{

TemperatureVector
uniformTemps(Celsius t)
{
    TemperatureVector v;
    v.value.fill(t);
    return v;
}

// ------------------------------------------------------- core actuators

TEST(CoreActuators, FetchWidthLimitReducesThroughput)
{
    auto run_ipc = [](std::uint32_t limit) {
        SyntheticWorkload wl(specProfile("186.crafty"));
        MemoryHierarchy mem;
        Core core(CpuConfig{}, wl, mem);
        core.setFetchWidthLimit(limit);
        for (int i = 0; i < 60000; ++i)
            core.tick();
        return core.stats().ipc();
    };
    const double full = run_ipc(0);
    const double limited = run_ipc(1);
    EXPECT_LT(limited, 0.8 * full);
    EXPECT_LE(limited, 1.05); // at most ~1 op per cycle fetched
}

TEST(CoreActuators, ThrottlingKeepsFrontEndBusy)
{
    // The paper's criticism of throttling: the I-cache and predictor
    // are still accessed every cycle, so front-end hot spots persist.
    SyntheticWorkload wl(specProfile("186.crafty"));
    MemoryHierarchy mem;
    Core core(CpuConfig{}, wl, mem);
    core.setFetchWidthLimit(1);
    std::uint64_t icache_accesses = 0;
    const int cycles = 20000;
    for (int i = 0; i < cycles; ++i) {
        core.tick();
        icache_accesses += core.activity().icache_accesses;
    }
    // Fetch still fires most cycles (modulo stalls/backpressure).
    EXPECT_GT(icache_accesses, cycles / 2u);
}

TEST(CoreActuators, SpeculationLimitBlocksFetch)
{
    auto run = [](std::uint32_t limit) {
        SyntheticWorkload wl(specProfile("253.perlbmk")); // branchy
        MemoryHierarchy mem;
        Core core(CpuConfig{}, wl, mem);
        core.setSpeculationLimit(limit);
        for (int i = 0; i < 60000; ++i) {
            core.tick();
            if (limit) {
                // The invariant can overshoot by at most one fetch
                // group between checks.
                EXPECT_LE(core.unresolvedBranches(), limit + 4);
            }
        }
        return core.stats().ipc();
    };
    const double free_ipc = run(0);
    const double limited_ipc = run(1);
    EXPECT_LT(limited_ipc, 0.9 * free_ipc);
}

TEST(CoreActuators, SpecControlHarmlessWithPerfectPrediction)
{
    // A tight predictable loop keeps few branches unresolved, so
    // speculation control barely engages — the paper's point that the
    // technique is "ineffective for programs with excellent branch
    // prediction".
    auto run = [](std::uint32_t limit) {
        WorkloadProfile p;
        p.name = "predictable";
        p.seed = 7;
        p.frac_loop_branches = 1.0;
        p.frac_biased_branches = 0.0;
        p.frac_patterned_branches = 0.0;
        p.frac_random_branches = 0.0;
        p.mean_trip_count = 64.0;
        p.mean_block_len = 10.0;
        SyntheticWorkload wl(p);
        MemoryHierarchy mem;
        Core core(CpuConfig{}, wl, mem);
        core.setSpeculationLimit(limit);
        for (int i = 0; i < 60000; ++i)
            core.tick();
        return core.stats().ipc();
    };
    const double free_ipc = run(0);
    const double limited_ipc = run(4);
    EXPECT_GT(limited_ipc, 0.75 * free_ipc);
}

// ------------------------------------------------------- policy objects

TEST(AuxPolicies, ThrottleEngagesWidthLimit)
{
    FetchThrottlePolicy policy(2, 110.8, 5000);
    auto cmd = policy.onSample(uniformTemps(111.0), 0);
    EXPECT_EQ(cmd.width_limit, 2u);
    EXPECT_DOUBLE_EQ(cmd.duty, 1.0);
    cmd = policy.onSample(uniformTemps(110.0), 10000);
    EXPECT_EQ(cmd.width_limit, 0u);
}

TEST(AuxPolicies, SpecControlEngagesBranchLimit)
{
    SpeculationControlPolicy policy(2, 110.8, 5000);
    auto cmd = policy.onSample(uniformTemps(111.0), 0);
    EXPECT_EQ(cmd.spec_limit, 2u);
    EXPECT_EQ(policy.name(), "spec-ctrl");
}

TEST(AuxPolicies, VfScalingEngagesFrequencyScale)
{
    VoltageScalingPolicy policy(0.7, 110.8, 5000);
    auto cmd = policy.onSample(uniformTemps(111.0), 0);
    EXPECT_DOUBLE_EQ(cmd.freq_scale, 0.7);
    cmd = policy.onSample(uniformTemps(110.0), 10000);
    EXPECT_DOUBLE_EQ(cmd.freq_scale, 1.0);
}

TEST(AuxPolicies, ValidateParameters)
{
    EXPECT_THROW(FetchThrottlePolicy(0, 110.8, 1), FatalError);
    EXPECT_THROW(SpeculationControlPolicy(0, 110.8, 1), FatalError);
    EXPECT_THROW(VoltageScalingPolicy(0.0, 110.8, 1), FatalError);
    EXPECT_THROW(VoltageScalingPolicy(1.0, 110.8, 1), FatalError);
}

// ------------------------------------------------- simulator scaling

TEST(VfScaling, SlowsWallClockAndCoolsChip)
{
    SimConfig hot;
    hot.workload = specProfile("186.crafty");
    hot.policy.kind = DtmPolicyKind::None;

    SimConfig scaled = hot;
    scaled.policy.kind = DtmPolicyKind::VfScale;

    Simulator a(hot), b(scaled);
    a.warmUp(300000);
    b.warmUp(300000);
    a.run(400000);
    b.run(400000);

    // Scaling engages on crafty: performance (wall-clock normalized)
    // drops below the baseline and below plain cycle-IPC. (The clock
    // may be back at nominal at the instant the run ends, so the scale
    // itself is not asserted.)
    EXPECT_LT(b.measuredPerformance(), 0.95 * a.measuredPerformance());
    EXPECT_LT(b.measuredPerformance(), b.measuredIpc());
    // And the chip runs cooler.
    EXPECT_LT(b.dtm().stats().max_temperature,
              a.dtm().stats().max_temperature);
    // Without scaling the two metrics agree.
    EXPECT_NEAR(a.measuredPerformance(), a.measuredIpc(), 1e-9);
}

TEST(VfScaling, ResyncStallsFetch)
{
    SimConfig cfg;
    cfg.workload = specProfile("186.crafty");
    cfg.policy.kind = DtmPolicyKind::VfScale;
    cfg.dtm.resync_cycles = 50000;
    Simulator sim(cfg);
    sim.warmUp(300000); // gets hot, scaling engages at least once
    sim.run(200000);
    // The fetch-gated cycles include the resynchronization stalls.
    EXPECT_GT(sim.core().stats().fetch_gated_cycles, 20000u);
}

// --------------------------------------------------- manager pass-through

TEST(ManagerCommands, CommandFieldsReachTheSimulatorPath)
{
    DtmConfig cfg;
    cfg.sample_interval = 10;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal,
                   std::make_unique<FetchThrottlePolicy>(2, 110.8,
                                                         100000));
    // Cool: default command.
    mgr.tick(uniformTemps(109.0), 0);
    EXPECT_EQ(mgr.command().width_limit, 0u);
    // Hot: throttle engages on the next sample.
    mgr.tick(uniformTemps(111.5), 10);
    EXPECT_EQ(mgr.command().width_limit, 2u);
    EXPECT_DOUBLE_EQ(mgr.command().duty, 1.0);
}

TEST(ManagerCommands, InterruptDelaysWholeCommand)
{
    DtmConfig cfg;
    cfg.sample_interval = 10;
    cfg.engagement = EngagementMechanism::Interrupt;
    cfg.interrupt_delay = 40;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal,
                   std::make_unique<VoltageScalingPolicy>(0.7, 110.8,
                                                          100000));
    for (Cycle c = 0; c < 30; ++c) {
        mgr.tick(uniformTemps(111.5), c);
        EXPECT_DOUBLE_EQ(mgr.command().freq_scale, 1.0) << c;
    }
    for (Cycle c = 30; c < 60; ++c)
        mgr.tick(uniformTemps(111.5), c);
    EXPECT_DOUBLE_EQ(mgr.command().freq_scale, 0.7);
}

// ------------------------------------------------------ scaled RC steps

TEST(ScaledThermalStep, MatchesRepeatedUnitSteps)
{
    Floorplan fp;
    ThermalConfig cfg;
    const double dt = 1.0 / 1.5e9;
    SimplifiedRCModel a(fp, cfg, dt);
    SimplifiedRCModel b(fp, cfg, dt);
    PowerVector p;
    p.value.fill(2.0);
    for (int i = 0; i < 20000; ++i) {
        a.stepScaled(p, 2.0);
        b.step(p);
        b.step(p);
    }
    for (StructureId id : kAllStructures) {
        // First-order Euler difference only; must agree tightly at
        // dt << RC.
        EXPECT_NEAR(a.temperatures()[id], b.temperatures()[id], 1e-4)
            << structureName(id);
    }
}

// ----------------------------------------------------------- grid model

TEST(GridModel, AgreesWithLumpedModelForUniformHeating)
{
    Floorplan fp;
    ThermalConfig cfg;
    const double dt = 1.0 / 1.5e9;
    SimplifiedRCModel lumped(fp, cfg, dt);
    GridThermalModel grid(fp, cfg, dt, 0.5);

    // Heat one block steadily; compare steady states.
    PowerVector p;
    p[StructureId::DCache] = 2.0;
    lumped.stepExact(p, 3'000'000);
    grid.stepSpan(p, 3'000'000);

    const double t_lumped = lumped.temperatures()[StructureId::DCache];
    const double t_grid = grid.blockMean(StructureId::DCache);
    // Lateral bleed makes the grid block slightly cooler on average;
    // they agree within ~20% of the rise.
    EXPECT_NEAR(t_grid, t_lumped, 0.2 * (t_lumped - cfg.t_base));
}

TEST(GridModel, ResolvesWithinBlockGradients)
{
    Floorplan fp;
    ThermalConfig cfg;
    GridThermalModel grid(fp, cfg, 1.0 / 1.5e9, 0.5);
    PowerVector p;
    p[StructureId::FpExec] = 4.0;
    grid.stepSpan(p, 3'000'000);
    // The heated block's interior is hotter than its edges.
    EXPECT_GT(grid.blockGradient(StructureId::FpExec), 0.1);
    // Neighbours pick up lateral heat; remote blocks stay near base.
    EXPECT_GT(grid.blockMean(StructureId::Regfile), cfg.t_base + 0.05);
    EXPECT_LT(grid.blockMean(StructureId::DCache),
              grid.blockMean(StructureId::Regfile));
}

TEST(GridModel, RejectsBadResolution)
{
    Floorplan fp;
    ThermalConfig cfg;
    EXPECT_THROW(GridThermalModel(fp, cfg, 1.0 / 1.5e9, 0.3),
                 FatalError);
    EXPECT_THROW(GridThermalModel(fp, cfg, 0.0, 0.5), FatalError);
}

} // namespace
} // namespace thermctl

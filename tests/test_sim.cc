/**
 * @file
 * Tests for the composed simulator, policy factory, and experiment
 * runner.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/policy_factory.hh"
#include "sim/simulator.hh"
#include "workload/spec_profiles.hh"

namespace thermctl
{
namespace
{

SimConfig
quickConfig(const std::string &bench = "186.crafty")
{
    SimConfig cfg;
    cfg.workload = specProfile(bench);
    return cfg;
}

TEST(PolicyFactory, NamesMatchKinds)
{
    EXPECT_STREQ(dtmPolicyKindName(DtmPolicyKind::None), "none");
    EXPECT_STREQ(dtmPolicyKindName(DtmPolicyKind::Toggle1), "toggle1");
    EXPECT_STREQ(dtmPolicyKindName(DtmPolicyKind::PID), "PID");
}

TEST(PolicyFactory, PlantDerivedFromHotspotBlocks)
{
    Floorplan fp;
    PowerModel pm(PowerConfig{}, CpuConfig{}, MemoryHierarchyConfig{});
    DtmConfig dtm;
    const double cycle_s = PowerConfig{}.tech.cycleSeconds();
    FopdtPlant plant = deriveDtmPlant(fp, pm, dtm, cycle_s);

    double max_rc = 0.0;
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        max_rc = std::max(max_rc, fp.block(id).rc().value());
    }
    EXPECT_DOUBLE_EQ(plant.tau, max_rc);
    EXPECT_GT(plant.gain, 1.0);
    EXPECT_NEAR(plant.dead_time, 500.0 * cycle_s, 1e-15);
}

TEST(PolicyFactory, BuildsEveryPolicyKind)
{
    Floorplan fp;
    PowerModel pm(PowerConfig{}, CpuConfig{}, MemoryHierarchyConfig{});
    DtmConfig dtm;
    const double cycle_s = PowerConfig{}.tech.cycleSeconds();
    FopdtPlant plant = deriveDtmPlant(fp, pm, dtm, cycle_s);
    for (DtmPolicyKind kind : kAllPolicies) {
        DtmPolicySettings settings;
        settings.kind = kind;
        auto policy = makeDtmPolicy(settings, plant, dtm, cycle_s);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), dtmPolicyKindName(kind));
    }
}

TEST(Simulator, RunsAndAccumulatesSaneStats)
{
    Simulator sim(quickConfig());
    sim.run(20000);
    EXPECT_EQ(sim.now(), 20000u);
    EXPECT_EQ(sim.stats().cycles, 20000u);
    EXPECT_GT(sim.measuredIpc(), 0.1);
    EXPECT_GT(sim.stats().avgPower(), 5.0);
    EXPECT_LT(sim.stats().avgPower(), 80.0);
    for (StructureId id : kAllStructures) {
        EXPECT_GE(sim.stats().avgTemperature(id),
                  sim.config().thermal.t_base - 1e-9)
            << structureName(id);
    }
}

TEST(Simulator, DeterministicAcrossInstances)
{
    auto run = [] {
        Simulator sim(quickConfig());
        sim.run(30000);
        return std::make_tuple(sim.core().stats().committed,
                               sim.stats().avgPower(),
                               sim.thermal().temperatures().maxHotspot());
    };
    EXPECT_EQ(run(), run());
}

TEST(Simulator, WarmUpResetsMeasurementButKeepsHeat)
{
    Simulator sim(quickConfig());
    sim.warmUp(60000);
    EXPECT_EQ(sim.stats().cycles, 0u);
    EXPECT_EQ(sim.core().stats().cycles, 0u);
    // Thermal state persists: crafty heats well above base.
    EXPECT_GT(sim.thermal().temperatures().maxHotspot(),
              sim.config().thermal.t_base + 1.0);
}

TEST(Simulator, ProbeFiresAtInterval)
{
    Simulator sim(quickConfig());
    int calls = 0;
    sim.setProbe([&](const Simulator &, Cycle) { ++calls; }, 1000);
    sim.run(10000);
    EXPECT_EQ(calls, 10);
}

TEST(Simulator, FetchTogglingReducesPowerUnderDtm)
{
    SimConfig none_cfg = quickConfig();
    none_cfg.policy.kind = DtmPolicyKind::None;
    SimConfig t1_cfg = quickConfig();
    t1_cfg.policy.kind = DtmPolicyKind::Toggle1;

    Simulator none(none_cfg), t1(t1_cfg);
    none.warmUp(300000);
    t1.warmUp(300000);
    none.run(300000);
    t1.run(300000);

    EXPECT_LT(t1.measuredIpc(), none.measuredIpc());
    EXPECT_LT(t1.stats().avgPower(), none.stats().avgPower());
    EXPECT_LT(t1.dtm().stats().emergencyFraction(), 1e-9);
    EXPECT_GT(none.dtm().stats().emergencyFraction(), 0.01);
}

TEST(Experiment, RunOneFillsAllFields)
{
    RunProtocol proto;
    proto.warmup_cycles = 40000;
    proto.measure_cycles = 80000;
    ExperimentRunner runner(proto);
    DtmPolicySettings policy;
    policy.kind = DtmPolicyKind::None;
    auto r = runner.runOne(specProfile("177.mesa"), policy);
    EXPECT_EQ(r.benchmark, "177.mesa");
    EXPECT_EQ(r.policy, "none");
    EXPECT_EQ(r.category, ThermalCategory::High);
    EXPECT_GT(r.ipc, 0.3);
    EXPECT_GT(r.avg_power, 10.0);
    EXPECT_GT(r.max_temperature, 108.0);
    EXPECT_DOUBLE_EQ(r.mean_duty, 1.0);
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        EXPECT_GT(r.structures[i].avg_temp, 100.0);
        EXPECT_GE(r.structures[i].max_temp, r.structures[i].avg_temp);
    }
}

TEST(Experiment, ClassifierBoundaries)
{
    RunResult r;
    r.emergency_fraction = 0.01;
    r.stress_fraction = 0.5;
    EXPECT_EQ(classifyThermalBehaviour(r), ThermalCategory::Extreme);
    r.emergency_fraction = 0.0;
    r.stress_fraction = 0.99;
    EXPECT_EQ(classifyThermalBehaviour(r), ThermalCategory::High);
    r.stress_fraction = 0.5;
    EXPECT_EQ(classifyThermalBehaviour(r), ThermalCategory::Medium);
    r.stress_fraction = 0.01;
    EXPECT_EQ(classifyThermalBehaviour(r), ThermalCategory::Low);
}

} // namespace
} // namespace thermctl

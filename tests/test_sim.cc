/**
 * @file
 * Tests for the composed simulator, policy factory, and experiment
 * runner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/experiment.hh"
#include "sim/policy_factory.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
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

// ------------------------------------------------------- cycle pipeline

/**
 * Run fn on this thread while every pool helper is held inside an outer
 * parallelFor, so a parallelFor nested in fn finds no helper free.
 */
template <typename Fn>
void
withPoolHeld(Fn fn)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t helpers = hw > 1 ? hw - 1 : 0;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<std::size_t> held{0};
    std::atomic<bool> done{false};
    parallelFor(helpers + 1, [&](std::size_t) {
        if (std::this_thread::get_id() != caller) {
            held.fetch_add(1);
            while (!done.load())
                std::this_thread::yield();
            return;
        }
        struct Release
        {
            std::atomic<bool> &done;
            ~Release() { done.store(true); }
        } release{done};
        while (held.load() < helpers)
            std::this_thread::yield();
        fn();
    });
}

enum class Path
{
    RunIdlePool,  ///< run(), the side stage on a free helper
    RunHeldPool,  ///< run() with no helper free: both stages inline
    TickLoop,     ///< tick() per cycle
    TickThenRun,  ///< tick() for half the cycles, then run()
};

/** Warm up, then measure `cycles` along `path`; the result's bytes. */
std::string
measuredBytes(const SimConfig &cfg, Path path, std::uint64_t cycles)
{
    Simulator sim(cfg);
    sim.warmUp(60000);
    switch (path) {
      case Path::RunIdlePool:
        sim.run(cycles);
        break;
      case Path::RunHeldPool:
        withPoolHeld([&] { sim.run(cycles); });
        break;
      case Path::TickLoop:
        for (std::uint64_t c = 0; c < cycles; ++c)
            sim.tick();
        break;
      case Path::TickThenRun:
        for (std::uint64_t c = 0; c < cycles / 2; ++c)
            sim.tick();
        sim.run(cycles - cycles / 2);
        break;
    }
    return serializeRunResult(collectRunResult(sim));
}

TEST(SimulatorPipeline, RunMatchesTheTickLoopOnEveryPath)
{
    // Every trigger 1 C lower and every delay shorter than the paper's,
    // so each policy acts within a short window of a warm crafty.
    SimConfig hot = quickConfig();
    DtmPolicySettings &p = hot.policy;
    p.nonct_trigger -= 1.0;
    p.p_setpoint -= 1.0;
    p.p_range_low -= 1.0;
    p.ct_setpoint -= 1.0;
    p.ct_range_low -= 1.0;
    p.hierarchy_backup_trigger -= 1.0;
    p.policy_delay = 5000;
    p.vf_policy_delay = 10000;
    hot.dtm.resync_cycles = 2000;

    std::vector<std::pair<std::string, SimConfig>> configs;
    for (const char *name :
         {"none", "toggle1", "toggle2", "M", "P", "PI", "PID", "throttle",
          "spec-ctrl", "vf-scaling", "PID+vf"}) {
        SimConfig cfg = hot;
        cfg.policy.kind = requireDtmPolicyKind(name);
        configs.emplace_back(name, cfg);
    }
    SimConfig leak = hot;
    leak.policy.kind = DtmPolicyKind::PID;
    leak.power.leakage_enabled = true;
    configs.emplace_back("PID, leakage", leak);
    SimConfig irq = hot;
    irq.policy.kind = DtmPolicyKind::Toggle1;
    irq.dtm.engagement = EngagementMechanism::Interrupt;
    configs.emplace_back("toggle1, interrupt", irq);
    // Phases shorter than the ops drawn ahead: the generator is often in
    // a later phase than the op the core last took.
    SimConfig phased = hot;
    phased.workload.phases = {
        {.length_insts = 1000, .fp_scale = 1.8, .mem_scale = 0.8},
        {.length_insts = 700, .fp_scale = 0.5, .mem_scale = 1.5,
         .dep_p_override = 0.5},
    };
    phased.policy.kind = DtmPolicyKind::PID;
    configs.emplace_back("PID, short phases", phased);

    for (const auto &[label, cfg] : configs) {
        const std::string idle =
            measuredBytes(cfg, Path::RunIdlePool, 25000);
        EXPECT_EQ(idle, measuredBytes(cfg, Path::RunHeldPool, 25000))
            << label;
        EXPECT_EQ(idle, measuredBytes(cfg, Path::TickLoop, 25000))
            << label;
        EXPECT_EQ(idle, measuredBytes(cfg, Path::TickThenRun, 25000))
            << label;
    }

    // Not vacuous: in the measured window PID toggles fetch and V/f
    // scaling slows the clock.
    for (const std::size_t k : {6, 9}) {
        Simulator sim(configs[k].second);
        sim.warmUp(60000);
        sim.run(25000);
        const RunResult r = collectRunResult(sim);
        EXPECT_TRUE(r.mean_duty < 1.0 || r.ipc < r.raw_ipc)
            << configs[k].first;
    }
}

TEST(SimulatorPipeline, ProbesSeeTheTickLoopTemperatures)
{
    SimConfig cfg = quickConfig();
    cfg.policy.kind = DtmPolicyKind::PID;
    for (const Cycle interval : {Cycle{2000}, Cycle{777}}) {
        std::vector<std::vector<double>> seen[2];
        for (int path = 0; path < 2; ++path) {
            Simulator sim(cfg);
            sim.setProbe(
                [&](const Simulator &s, Cycle now) {
                    std::vector<double> row{static_cast<double>(now)};
                    for (const double t : s.thermal().temperatures().value)
                        row.push_back(t);
                    row.push_back(s.stats().power_sum.total());
                    seen[path].push_back(row);
                },
                interval);
            sim.warmUp(20000);
            if (path == 0) {
                sim.run(20000);
            } else {
                for (int c = 0; c < 20000; ++c)
                    sim.tick();
            }
        }
        EXPECT_EQ(seen[0].size(), 40000 / interval) << interval;
        EXPECT_EQ(seen[0], seen[1]) << interval;
    }
}

TEST(SimulatorPipeline, TraceEndThrowsTheSamePanicOnBothPaths)
{
    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) / "pipeline_short.trace";
    {
        SyntheticWorkload wl(specProfile("186.crafty"));
        TraceWriter writer(path.string());
        for (int i = 0; i < 5000; ++i)
            writer.append(wl.next());
        writer.close();
    }
    SimConfig cfg = quickConfig();
    cfg.trace_path = path.string();
    cfg.trace_loop = false;

    std::string messages[2];
    for (int tick_path = 0; tick_path < 2; ++tick_path) {
        Simulator sim(cfg);
        try {
            if (tick_path) {
                for (int c = 0; c < 100000; ++c)
                    sim.tick();
            } else {
                sim.run(100000);
            }
        } catch (const PanicError &e) {
            messages[tick_path] = e.what();
        }
    }
    EXPECT_NE(messages[0].find("past end of trace"), std::string::npos)
        << messages[0];
    EXPECT_EQ(messages[0], messages[1]);
    std::filesystem::remove(path);
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

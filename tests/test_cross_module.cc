/**
 * @file
 * Cross-module tests: the core driven by a recorded trace, long-run
 * numerical stability of the boxcar window, and the quantized CT-DTM
 * control loop end to end.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "cpu/core.hh"
#include "dtm/actuator.hh"
#include "sim/policy_factory.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace thermctl
{
namespace
{

TEST(CrossModule, CoreRunsFromRecordedTrace)
{
    const auto path = std::filesystem::temp_directory_path()
        / "thermctl_core_trace.bin";

    // Record a committed-path trace from the generator.
    {
        SyntheticWorkload wl(specProfile("186.crafty"));
        TraceWriter writer(path.string());
        for (int i = 0; i < 300000; ++i)
            writer.append(wl.next());
    }

    // Replay it through the core (looping, so the core never starves).
    TraceReader reader(path.string(), /*loop=*/true);
    MemoryHierarchy mem;
    Core core(CpuConfig{}, reader, mem);
    for (int i = 0; i < 100000; ++i)
        core.tick();

    EXPECT_GT(core.stats().committed, 50000u);
    EXPECT_GT(core.stats().ipc(), 0.5);
    std::filesystem::remove(path);
}

TEST(CrossModule, TraceReplayIsDeterministic)
{
    const auto path = std::filesystem::temp_directory_path()
        / "thermctl_replay.bin";
    {
        SyntheticWorkload wl(specProfile("177.mesa"));
        TraceWriter writer(path.string());
        for (int i = 0; i < 100000; ++i)
            writer.append(wl.next());
    }
    auto run = [&] {
        TraceReader reader(path.string(), true);
        MemoryHierarchy mem;
        Core core(CpuConfig{}, reader, mem);
        for (int i = 0; i < 50000; ++i)
            core.tick();
        return core.stats().committed;
    };
    EXPECT_EQ(run(), run());
    std::filesystem::remove(path);
}

TEST(CrossModule, BoxcarSurvivesMillionsOfAdds)
{
    // The incremental sum is periodically recomputed to bound float
    // drift; after millions of adds the window must still be exact.
    BoxcarAverage box(7);
    Rng rng(3);
    std::array<double, 7> last{};
    std::size_t head = 0;
    for (int i = 0; i < 2'200'000; ++i) {
        const double x = rng.uniform(-1000.0, 1000.0);
        box.add(x);
        last[head] = x;
        head = (head + 1) % 7;
    }
    double expect = 0.0;
    for (double v : last)
        expect += v;
    expect /= 7.0;
    EXPECT_NEAR(box.average(), expect, 1e-6);
}

TEST(CrossModule, QuantizedCtLoopHoldsPlantAtSetpoint)
{
    // Close the loop analytically: tuned PI + 8-level toggler + FOPDT
    // plant, mimicking the DTM path without the full simulator. The
    // quantized actuator produces a limit cycle whose mean sits at the
    // setpoint and whose amplitude stays well inside the 0.2 C margin.
    FopdtPlant plant{.gain = 9.0, .tau = 130e-6, .dead_time = 333e-9};
    PidConfig cfg = tuneLoopShaping(ControllerKind::PI, plant);
    cfg.setpoint = 3.6; // degrees above base, like 111.6 vs 108.0
    cfg.dt = 667e-9;
    cfg.out_min = 0.0;
    cfg.out_max = 1.0;
    cfg.integral_init = 1.0;
    PidController pid(cfg);
    FetchToggler toggler;

    double y = 3.0; // start warm
    Accumulator tail;
    const int steps = 40000;
    for (int i = 0; i < steps; ++i) {
        const double duty = pid.update(y);
        toggler.setDuty(duty);
        // Realize the duty over one sampling period of plant time.
        const double u = static_cast<double>(toggler.level()) / 7.0;
        for (int k = 0; k < 4; ++k)
            y = plant.stepState(y, u, cfg.dt / 4.0);
        if (i > steps / 2)
            tail.add(y);
    }
    EXPECT_NEAR(tail.mean(), cfg.setpoint, 0.1);
    EXPECT_LT(tail.max(), cfg.setpoint + 0.2);
}

TEST(CrossModule, PolicyFactoryGainsAreUsableDuties)
{
    // The tuned controllers must produce duty changes the 8-level
    // actuator can express: a 0.05 C error near the setpoint should
    // move the output by at least one quantization level but not rail
    // it instantly.
    Floorplan fp;
    PowerModel pm(PowerConfig{}, CpuConfig{}, MemoryHierarchyConfig{});
    DtmConfig dtm;
    const double cycle_s = PowerConfig{}.tech.cycleSeconds();
    FopdtPlant plant = deriveDtmPlant(fp, pm, dtm, cycle_s);
    PidConfig cfg = tuneLoopShaping(ControllerKind::PID, plant);
    // Proportional response to a 0.05 C error:
    const double delta = cfg.kp * 0.05;
    EXPECT_GT(delta, 1.0 / 14.0); // at least half a level
}

} // namespace
} // namespace thermctl

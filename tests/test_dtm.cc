/**
 * @file
 * Tests for the DTM layer: sensors, the quantized fetch toggler, the
 * policy implementations, and the manager's sampling/engagement logic.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "dtm/actuator.hh"
#include "dtm/manager.hh"
#include "dtm/policy.hh"
#include "dtm/sensor.hh"

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

// --------------------------------------------------------------- sensors

TEST(Sensors, IdealByDefault)
{
    SensorBank bank;
    auto truth = uniformTemps(100.0);
    truth[StructureId::Lsq] = 111.5;
    auto sensed = bank.read(truth);
    for (std::size_t i = 0; i < kNumStructures; ++i)
        EXPECT_DOUBLE_EQ(sensed.value[i], truth.value[i]);
}

TEST(Sensors, OffsetShiftsAllReadings)
{
    SensorConfig cfg;
    cfg.offset = -0.5;
    SensorBank bank(cfg);
    auto sensed = bank.read(uniformTemps(100.0));
    for (double t : sensed.value)
        EXPECT_DOUBLE_EQ(t, 99.5);
}

TEST(Sensors, QuantizationSnapsToGrid)
{
    SensorConfig cfg;
    cfg.quantum = 0.5;
    SensorBank bank(cfg);
    auto sensed = bank.read(uniformTemps(100.26));
    for (double t : sensed.value)
        EXPECT_DOUBLE_EQ(t, 100.5);
}

TEST(Sensors, NoiseIsZeroMeanAndDeterministic)
{
    SensorConfig cfg;
    cfg.noise_sigma = 0.2;
    SensorBank a(cfg), b(cfg);
    double sum = 0.0;
    int n = 0;
    for (int i = 0; i < 1000; ++i) {
        auto sa = a.read(uniformTemps(100.0));
        auto sb = b.read(uniformTemps(100.0));
        for (std::size_t k = 0; k < kNumStructures; ++k) {
            ASSERT_DOUBLE_EQ(sa.value[k], sb.value[k]);
            sum += sa.value[k] - 100.0;
            ++n;
        }
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
}

// -------------------------------------------------------------- actuator

TEST(Toggler, FullSpeedByDefault)
{
    FetchToggler t;
    EXPECT_EQ(t.level(), 7u);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(t.allowFetch());
}

TEST(Toggler, LevelZeroBlocksAll)
{
    FetchToggler t;
    t.setLevel(0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(t.allowFetch());
}

TEST(Toggler, DutyQuantizedToEighths)
{
    FetchToggler t;
    t.setDuty(0.5);
    EXPECT_EQ(t.level(), 4u); // round(0.5 * 7) = 4
    t.setDuty(1.1);
    EXPECT_EQ(t.level(), 7u);
    t.setDuty(-0.3);
    EXPECT_EQ(t.level(), 0u);
}

/** Property: each level k allows exactly k fetches per 7-cycle frame. */
class TogglerDuty : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TogglerDuty, ExactCountPerFrame)
{
    const std::uint32_t level = GetParam();
    FetchToggler t;
    t.setLevel(level);
    int allowed = 0;
    const int frames = 1000;
    for (int i = 0; i < 7 * frames; ++i)
        allowed += t.allowFetch();
    EXPECT_EQ(allowed, static_cast<int>(level) * frames);
}

TEST_P(TogglerDuty, SpreadEvenlyNotBursty)
{
    const std::uint32_t level = GetParam();
    if (level == 0)
        return;
    FetchToggler t;
    t.setLevel(level);
    // Maximum gap between allowed fetches is ceil(7/level).
    int gap = 0;
    for (int i = 0; i < 700; ++i) {
        if (t.allowFetch())
            gap = 0;
        else
            ++gap;
        ASSERT_LE(gap, static_cast<int>((7 + level - 1) / level));
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, TogglerDuty,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(Toggler, RejectsZeroLevels)
{
    EXPECT_THROW(FetchToggler(0), FatalError);
}

// --------------------------------------------------------------- policies

TEST(Policy, NoDtmAlwaysFullSpeed)
{
    NoDtmPolicy policy;
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(150.0), 0).duty, 1.0);
}

TEST(Policy, FixedToggleEngagesAtTriggerAndHolds)
{
    FixedTogglePolicy policy(0.0, 110.8, 5000, "toggle1");
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(110.0), 0).duty, 1.0);
    // Trigger.
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(111.0), 1000).duty, 0.0);
    // Cooled below trigger but still inside the policy delay.
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(110.0), 3000).duty, 0.0);
    // Delay expired.
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(110.0), 7000).duty, 1.0);
}

TEST(Policy, FixedToggleRetriggersExtendDelay)
{
    FixedTogglePolicy policy(0.5, 110.8, 5000, "toggle2");
    policy.onSample(uniformTemps(111.0), 0);
    policy.onSample(uniformTemps(111.0), 4000); // re-trigger
    // Original delay would expire at 5000; the re-trigger extends it.
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(110.0), 6000).duty, 0.5);
}

TEST(Policy, ManualProportionalMapsLinearly)
{
    ManualProportionalPolicy policy(110.8, 111.8);
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(110.0), 0).duty, 1.0);
    EXPECT_NEAR(policy.onSample(uniformTemps(111.3), 0).duty, 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(112.0), 0).duty, 0.0);
}

TEST(Policy, CtPolicyQuiescentBelowRange)
{
    PidConfig pid;
    pid.kp = 2.0;
    pid.ki = 1e5;
    pid.setpoint = 111.6;
    pid.dt = 667e-9;
    CtPolicy policy(ControllerKind::PI, pid, 111.4);
    // Far below the range floor: full speed, repeatedly.
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(policy.onSample(uniformTemps(109.0), i).duty, 1.0);
    // Above the setpoint the duty must fall.
    double duty = 1.0;
    for (int i = 0; i < 20; ++i)
        duty = policy.onSample(uniformTemps(111.8), 100 + i).duty;
    EXPECT_LT(duty, 0.5);
}

TEST(Policy, CtPolicyUsesHottestStructure)
{
    PidConfig pid;
    pid.kp = 5.0;
    pid.setpoint = 111.6;
    pid.dt = 667e-9;
    CtPolicy policy(ControllerKind::P, pid, 110.8);
    auto temps = uniformTemps(109.0);
    temps[StructureId::FpExec] = 112.0; // one hot structure
    EXPECT_LT(policy.onSample(temps, 0).duty, 1.0);
}

TEST(Policy, CtPolicyRejectsRangeAboveSetpoint)
{
    PidConfig pid;
    pid.setpoint = 111.0;
    pid.dt = 1.0;
    EXPECT_THROW(CtPolicy(ControllerKind::P, pid, 111.5), FatalError);
}

TEST(Policy, NamesAreStable)
{
    EXPECT_EQ(NoDtmPolicy().name(), "none");
    EXPECT_EQ(FixedTogglePolicy(0.0, 110.8, 1, "toggle1").name(),
              "toggle1");
    EXPECT_EQ(ManualProportionalPolicy(110.8, 111.8).name(), "M");
    PidConfig pid;
    pid.setpoint = 111.6;
    pid.dt = 1.0;
    EXPECT_EQ(CtPolicy(ControllerKind::PID, pid, 111.4).name(), "PID");
}

// ---------------------------------------------------------------- manager

TEST(Manager, CountsEmergencyAndStressCycles)
{
    DtmConfig cfg;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal, std::make_unique<NoDtmPolicy>());
    mgr.tick(uniformTemps(112.0), 0); // emergency
    mgr.tick(uniformTemps(111.0), 1); // stress only
    mgr.tick(uniformTemps(109.0), 2); // neither
    const auto &s = mgr.stats();
    EXPECT_EQ(s.cycles, 3u);
    EXPECT_EQ(s.emergency_cycles, 1u);
    EXPECT_EQ(s.stress_cycles, 2u);
    EXPECT_NEAR(s.max_temperature, 112.0, 1e-12);
}

TEST(Manager, SamplesAtConfiguredInterval)
{
    DtmConfig cfg;
    cfg.sample_interval = 100;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal, std::make_unique<NoDtmPolicy>());
    for (Cycle c = 0; c < 1000; ++c)
        mgr.tick(uniformTemps(100.0), c);
    EXPECT_EQ(mgr.stats().samples, 10u);
}

TEST(Manager, SamplesOnlyAtMultiplesOfTheInterval)
{
    // observe() tracks the next sample cycle instead of testing
    // now % interval per call; for rising cycles that skip multiples or
    // start off one, it must still sample exactly at the multiples.
    DtmConfig cfg;
    cfg.sample_interval = 10;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal, std::make_unique<NoDtmPolicy>());
    for (const Cycle c : {3, 5, 10, 14, 19, 20, 35, 41})
        mgr.tick(uniformTemps(100.0), c);
    EXPECT_EQ(mgr.stats().samples, 2u);
}

TEST(Manager, DirectEngagementGatesImmediately)
{
    DtmConfig cfg;
    cfg.sample_interval = 10;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal,
                   std::make_unique<FixedTogglePolicy>(0.0, 110.8,
                                                       100000,
                                                       "toggle1"));
    // Hot from the start: the very first sample (cycle 0) engages.
    bool any_fetch = false;
    for (Cycle c = 0; c < 100; ++c)
        any_fetch = mgr.tick(uniformTemps(111.5), c) || any_fetch;
    EXPECT_FALSE(any_fetch);
    EXPECT_GT(mgr.stats().engaged_cycles, 90u);
}

TEST(Manager, InterruptEngagementDelaysChange)
{
    DtmConfig cfg;
    cfg.sample_interval = 10;
    cfg.engagement = EngagementMechanism::Interrupt;
    cfg.interrupt_delay = 50;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal,
                   std::make_unique<FixedTogglePolicy>(0.0, 110.8,
                                                       100000,
                                                       "toggle1"));
    int fetches_before_delay = 0;
    for (Cycle c = 0; c < 50; ++c)
        fetches_before_delay += mgr.tick(uniformTemps(111.5), c);
    // Fetch continues until the interrupt lands.
    EXPECT_GT(fetches_before_delay, 45);
    int fetches_after = 0;
    for (Cycle c = 50; c < 150; ++c)
        fetches_after += mgr.tick(uniformTemps(111.5), c);
    EXPECT_EQ(fetches_after, 0);
}

TEST(Manager, MeanDutyTracksPolicy)
{
    DtmConfig cfg;
    cfg.sample_interval = 10;
    ThermalConfig thermal;
    DtmManager mgr(cfg, thermal,
                   std::make_unique<ManualProportionalPolicy>(110.8,
                                                              111.8));
    for (Cycle c = 0; c < 1000; ++c)
        mgr.tick(uniformTemps(111.3), c);
    const auto &s = mgr.stats();
    EXPECT_NEAR(s.duty_sum / s.samples, 0.5, 1e-9);
}

TEST(Manager, RejectsBadConfig)
{
    DtmConfig cfg;
    ThermalConfig thermal;
    EXPECT_THROW(DtmManager(cfg, thermal, nullptr), FatalError);
    cfg.sample_interval = 0;
    EXPECT_THROW(
        DtmManager(cfg, thermal, std::make_unique<NoDtmPolicy>()),
        FatalError);
}

} // namespace
} // namespace thermctl

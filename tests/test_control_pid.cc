/**
 * @file
 * Tests for the discrete PID controller, with emphasis on the paper's
 * Section 3.3 anti-windup behaviour.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "control/pid.hh"

namespace thermctl
{
namespace
{

PidConfig
baseConfig()
{
    PidConfig cfg;
    cfg.setpoint = 10.0;
    cfg.dt = 1.0;
    cfg.out_min = 0.0;
    cfg.out_max = 1.0;
    return cfg;
}

TEST(Pid, ProportionalOnly)
{
    PidConfig cfg = baseConfig();
    cfg.kp = 0.1;
    PidController pid(cfg);
    // error = 10 - 8 = 2 -> u = 0.2
    EXPECT_NEAR(pid.update(8.0), 0.2, 1e-12);
    // error = 10 - 15 = -5 -> clamped at 0
    EXPECT_DOUBLE_EQ(pid.update(15.0), 0.0);
    // large positive error saturates high
    EXPECT_DOUBLE_EQ(pid.update(-100.0), 1.0);
}

TEST(Pid, IntegralAccumulatesAndHolds)
{
    PidConfig cfg = baseConfig();
    cfg.ki = 0.01;
    PidController pid(cfg);
    double u = 0.0;
    for (int i = 0; i < 30; ++i)
        u = pid.update(9.0); // constant error of 1
    EXPECT_NEAR(u, 0.30, 1e-9);
    // At zero error the integral term holds the output steady.
    const double held = pid.update(10.0);
    EXPECT_NEAR(held, 0.30, 1e-9);
}

TEST(Pid, DerivativeOpposesRapidRise)
{
    PidConfig cfg = baseConfig();
    cfg.kp = 0.05;
    cfg.kd = 0.2;
    PidController pid(cfg);
    pid.update(9.0);
    // Measurement rising fast: derivative (on measurement) is negative,
    // pulling the output down relative to pure P.
    const double u = pid.update(9.9);
    const double p_only = cfg.kp * (10.0 - 9.9);
    EXPECT_LT(u, p_only);
}

TEST(Pid, AntiWindupLimitsIntegralToActuatorRange)
{
    PidConfig cfg = baseConfig();
    cfg.ki = 1.0; // aggressive
    cfg.anti_windup = AntiWindup::Conditional;
    PidController pid(cfg);
    // Long stretch of large positive error: output saturates at 1.
    for (int i = 0; i < 1000; ++i)
        EXPECT_DOUBLE_EQ(pid.update(0.0), 1.0);
    // The integral term is clamped to the actuator range, so when the
    // error flips sign the output unwinds immediately.
    pid.update(20.0); // error -10
    const double u = pid.update(20.0);
    EXPECT_LT(u, 1.0);
}

TEST(Pid, WindupWithoutProtectionUnwindsSlowly)
{
    // Contrast case documenting why the paper freezes the integrator:
    // with windup protection the controller reacts to an overshoot
    // within a couple of samples; without it the integral is unbounded
    // and takes far longer to unwind back into the actuator range.
    auto settle_steps = [](AntiWindup mode) {
        PidConfig cfg;
        cfg.setpoint = 10.0;
        cfg.dt = 1.0;
        cfg.ki = 0.05;
        cfg.out_min = 0.0;
        cfg.out_max = 1.0;
        cfg.anti_windup = mode;
        PidController pid(cfg);
        for (int i = 0; i < 500; ++i)
            pid.update(0.0); // wind up
        int steps = 0;
        while (pid.update(12.0) > 0.5 && steps < 1000)
            ++steps;
        return steps;
    };
    EXPECT_LE(settle_steps(AntiWindup::Conditional),
              settle_steps(AntiWindup::None));
}

TEST(Pid, OutputClampedToRange)
{
    PidConfig cfg = baseConfig();
    cfg.kp = 100.0;
    PidController pid(cfg);
    EXPECT_DOUBLE_EQ(pid.update(-1000.0), 1.0);
    EXPECT_DOUBLE_EQ(pid.update(1000.0), 0.0);
}

TEST(Pid, ResetClearsDynamicState)
{
    PidConfig cfg = baseConfig();
    cfg.ki = 0.1;
    PidController pid(cfg);
    for (int i = 0; i < 10; ++i)
        pid.update(5.0);
    pid.reset();
    // Integral and derivative history are gone: the next step matches
    // a fresh controller's first step.
    PidController fresh(cfg);
    EXPECT_DOUBLE_EQ(pid.update(9.5), fresh.update(9.5));
}

TEST(Pid, DerivativeFilterSmooths)
{
    PidConfig raw = baseConfig();
    raw.kd = 1.0;
    raw.out_min = -100.0;
    raw.out_max = 100.0;
    raw.derivative_filter = 1.0;
    PidConfig filtered = raw;
    filtered.derivative_filter = 0.1;

    PidController a(raw), b(filtered);
    a.update(0.0);
    b.update(0.0);
    // A measurement spike produces a much larger derivative kick in the
    // unfiltered controller.
    const double ua = a.update(5.0);
    const double ub = b.update(5.0);
    EXPECT_LT(ua, ub); // spike drives output down harder unfiltered
}

TEST(Pid, RejectsBadConfig)
{
    PidConfig cfg = baseConfig();
    cfg.dt = 0.0;
    EXPECT_THROW(PidController{cfg}, FatalError);
    cfg = baseConfig();
    cfg.out_min = 1.0;
    cfg.out_max = 0.0;
    EXPECT_THROW(PidController{cfg}, FatalError);
    cfg = baseConfig();
    cfg.derivative_filter = 0.0;
    EXPECT_THROW(PidController{cfg}, FatalError);
}

} // namespace
} // namespace thermctl

/**
 * @file
 * Tests for the physics-invariant checking layer (src/check) and the
 * dimensional strong types behind it.
 *
 * The check:: primitives are always available, so every invariant class
 * (finiteness, forward-Euler stability, energy balance, PID contract) is
 * proven to fire regardless of whether the build compiles the
 * instrumentation in. The instrumented library paths are additionally
 * exercised when THERMCTL_INVARIANTS_ENABLED is set (scripts/check.sh
 * runs the suite in that configuration).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check/invariants.hh"
#include "common/logging.hh"
#include "control/pid.hh"
#include "multicore/chip_model.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_model.hh"

using namespace thermctl;

namespace
{

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Seconds kDt = 1.0 / 1.5e9;

// ------------------------------------------------- dimensional algebra

// The Table 1 duality algebra is enforced at compile time; these are the
// shapes the checker leans on at runtime.
static_assert(std::is_same_v<decltype(Watts{} * KelvinPerWatt{}), Kelvin>);
static_assert(std::is_same_v<decltype(KelvinPerWatt{} * JoulePerKelvin{}),
                             Seconds>);
static_assert(std::is_same_v<decltype(Watts{} * Seconds{}), Joules>);
static_assert(std::is_same_v<decltype(Joules{} / JoulePerKelvin{}), Kelvin>);
static_assert(std::is_same_v<decltype(Seconds{} / Seconds{}), units::Ratio>);

TEST(Units, QuantityArithmeticCarriesDimensions)
{
    const Watts p = 10.0;
    const KelvinPerWatt r = 0.5;
    const JoulePerKelvin c = 2.0;
    const Kelvin dt_rise = p * r;
    EXPECT_DOUBLE_EQ(dt_rise.value(), 5.0);
    const Seconds tau = r * c;
    EXPECT_DOUBLE_EQ(tau.value(), 1.0);
    const Joules e = p * Seconds(3.0);
    EXPECT_DOUBLE_EQ(e.value(), 30.0);
    EXPECT_DOUBLE_EQ((e / c).value(), 15.0);
}

TEST(Units, HelpersMatchStrongTypes)
{
    EXPECT_DOUBLE_EQ(units::mm2ToM2(10.0), 1e-5);
    EXPECT_DOUBLE_EQ(units::sToUs(Seconds(2.5e-4)), 250.0);
}

// ------------------------------------------------------- NaN injection

TEST(CheckFinite, PassesOnCleanState)
{
    TemperatureVector temps;
    temps.value.fill(100.0);
    EXPECT_NO_THROW(check::verifyFinite(temps, "test"));

    PowerVector power;
    power.value.fill(1.5);
    EXPECT_NO_THROW(check::verifyFinite(power, "test"));
    EXPECT_NO_THROW(check::verifyFinite(42.0, "scalar", "test"));
}

TEST(CheckFinite, FiresOnNanTemperature)
{
    TemperatureVector temps;
    temps.value.fill(100.0);
    temps[StructureId::Regfile] = kNan;
    EXPECT_THROW(check::verifyFinite(temps, "test"), PanicError);
}

TEST(CheckFinite, FiresOnInfinitePower)
{
    PowerVector power;
    power.value.fill(1.5);
    power[StructureId::IntExec] = kInf;
    EXPECT_THROW(check::verifyFinite(power, "test"), PanicError);
    EXPECT_THROW(check::verifyFinite(kNan, "scalar", "test"), PanicError);
}

// ----------------------------------------------- forward-Euler stability

TEST(CheckEuler, AcceptsStableRatio)
{
    EXPECT_NO_THROW(check::verifyEulerStable(0.01, 1.0, "test", "blk"));
}

TEST(CheckEuler, FiresOnUnstableRatio)
{
    EXPECT_THROW(check::verifyEulerStable(1.0, 1.0, "test", "blk"),
                 PanicError);
    EXPECT_THROW(check::verifyEulerStable(2.5, 1.0, "test", "blk"),
                 PanicError);
    EXPECT_THROW(check::verifyEulerStable(-0.1, 1.0, "test", "blk"),
                 PanicError);
}

TEST(CheckEuler, UnstableDtRejectedAtConstruction)
{
    Floorplan fp;
    ThermalConfig cfg;
    // 1 ms per step is far beyond every block's tens-of-microseconds
    // time constant: both models (Fig. 3C and the one-core Fig. 3B
    // network) must refuse to integrate Eq. 5.
    EXPECT_THROW(SimplifiedRCModel(fp, cfg, 1e-3), FatalError);
    EXPECT_THROW(multicore::ChipModel(fp, cfg, 1e-3, MulticoreConfig{}),
                 FatalError);
}

// ----------------------------------------------------------- PID contract

TEST(CheckPid, AcceptsOutputWithinActuatorRange)
{
    EXPECT_NO_THROW(
        check::verifyPidContract(0.5, 0.7, 0.0, 1.0, true, "test"));
}

TEST(CheckPid, FiresOnSaturationEscape)
{
    EXPECT_THROW(
        check::verifyPidContract(1.2, 0.7, 0.0, 1.0, true, "test"),
        PanicError);
    EXPECT_THROW(
        check::verifyPidContract(-0.1, 0.7, 0.0, 1.0, true, "test"),
        PanicError);
}

TEST(CheckPid, FiresOnIntegralWindupPastClamp)
{
    // With the conditional anti-windup active the integral term alone
    // must never exceed the actuator range (paper Section 3.3).
    EXPECT_THROW(
        check::verifyPidContract(1.0, 3.5, 0.0, 1.0, true, "test"),
        PanicError);
    // Without the clamp (AntiWindup::None) windup is expected behaviour.
    EXPECT_NO_THROW(
        check::verifyPidContract(1.0, 3.5, 0.0, 1.0, false, "test"));
}

TEST(CheckPid, FiresOnNonFiniteControllerState)
{
    EXPECT_THROW(
        check::verifyPidContract(kNan, 0.5, 0.0, 1.0, true, "test"),
        PanicError);
}

// --------------------------------------------------------- energy balance

TEST(CheckEnergy, BalancedAuditPasses)
{
    check::EnergyAudit audit;
    audit.setStoredBefore(100.0);
    audit.addInput(5.0);
    audit.addAmbientLoss(2.0);
    audit.setStoredAfter(103.0);
    EXPECT_NO_THROW(audit.verify("test"));
}

TEST(CheckEnergy, FiresOnMissingEnergy)
{
    check::EnergyAudit audit;
    audit.setStoredBefore(100.0);
    audit.addInput(5.0);
    audit.addAmbientLoss(2.0);
    audit.setStoredAfter(104.0); // 1 J appeared from nowhere
    EXPECT_THROW(audit.verify("test"), PanicError);
}

// ------------------------------------- instrumented library paths
// Compiled only when the build carries the instrumentation; the default
// build proves the invariant classes via the direct calls above.
#if THERMCTL_INVARIANTS_ENABLED

TEST(Instrumented, SimplifiedStepRejectsNanPower)
{
    Floorplan fp;
    SimplifiedRCModel model(fp, ThermalConfig{}, kDt);
    PowerVector p;
    p.value.fill(1.5);
    p[StructureId::Lsq] = kNan;
    EXPECT_THROW(model.step(p), PanicError);
}

TEST(Instrumented, StepScaledRejectsDestabilizingMultiplier)
{
    Floorplan fp;
    SimplifiedRCModel model(fp, ThermalConfig{}, kDt);
    PowerVector p;
    p.value.fill(1.5);
    EXPECT_NO_THROW(model.stepScaled(p, 4.0)); // V/f scaling range: fine
    EXPECT_THROW(model.stepScaled(p, 1e9), PanicError);
}

TEST(Instrumented, FullModelSpanAuditsEnergyBalance)
{
    Floorplan fp;
    multicore::ChipModel model(fp, ThermalConfig{}, kDt, MulticoreConfig{});
    PowerVector p;
    p.value.fill(2.0);
    // A long span (heavily chunked) must close the energy balance.
    EXPECT_NO_THROW(model.stepSpan({p}, 3'000'000));
    EXPECT_GT(model.temperatures(0).maxHotspot().value(),
              ThermalConfig{}.t_base.value());
}

TEST(Instrumented, PidUpdateContractHoldsUnderSaturation)
{
    PidConfig cfg;
    cfg.kp = 50.0;
    cfg.ki = 1e4;
    cfg.dt = 1e-6;
    cfg.setpoint = 111.6;
    cfg.out_min = 0.0;
    cfg.out_max = 1.0;
    cfg.integral_init = 1.0;
    PidController pid(cfg);
    // Drive deep into both saturation rails; the contract check runs on
    // every update.
    double u = 0.5;
    for (int i = 0; i < 1000; ++i)
        u = pid.update(130.0);
    EXPECT_DOUBLE_EQ(u, 0.0);
    for (int i = 0; i < 1000; ++i)
        u = pid.update(90.0);
    EXPECT_DOUBLE_EQ(u, 1.0);
}

#endif // THERMCTL_INVARIANTS_ENABLED

} // namespace

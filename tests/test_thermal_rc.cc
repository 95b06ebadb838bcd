/**
 * @file
 * Tests for the lumped thermal-RC models: the paper's Eq. 5 difference
 * equation vs. the closed-form exponential, steady states, warm starts,
 * the full tangential network (Fig. 3B: a one-core multicore::ChipModel),
 * and the chip-level model.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "multicore/chip_model.hh"
#include "thermal/rc_model.hh"

namespace thermctl
{
namespace
{

constexpr double kDt = 1.0 / 1.5e9; // one 1.5 GHz cycle

PowerVector
uniformPower(double watts)
{
    PowerVector p;
    p.value.fill(watts);
    return p;
}

TEST(SimplifiedRC, StartsAtBaseTemperature)
{
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel model(fp, cfg, kDt);
    for (double t : model.temperatures().value)
        EXPECT_DOUBLE_EQ(t, cfg.t_base);
}

TEST(SimplifiedRC, HeatsTowardSteadyState)
{
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel model(fp, cfg, kDt);
    const PowerVector p = uniformPower(2.0);
    // Step well past several time constants using the exact update.
    model.stepExact(p, 5'000'000); // ~3.3 ms >> all block RCs
    for (StructureId id : kAllStructures) {
        EXPECT_NEAR(model.temperatures()[id], model.steadyState(id, 2.0),
                    1e-6)
            << structureName(id);
    }
}

TEST(SimplifiedRC, SteadyStateIsBasePlusPR)
{
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel model(fp, cfg, kDt);
    const double r = fp.block(StructureId::Lsq).resistance;
    EXPECT_NEAR(model.steadyState(StructureId::Lsq, 3.0),
                cfg.t_base + 3.0 * r, 1e-12);
}

/** Property: Euler per-cycle integration tracks the exact solution. */
class EulerVsExact : public ::testing::TestWithParam<double>
{
};

TEST_P(EulerVsExact, AgreeOverOneTimeConstant)
{
    const double watts = GetParam();
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel euler(fp, cfg, kDt);
    SimplifiedRCModel exact(fp, cfg, kDt);
    const PowerVector p = uniformPower(watts);

    const std::uint64_t chunk = 10000;
    for (int i = 0; i < 20; ++i) {
        for (std::uint64_t c = 0; c < chunk; ++c)
            euler.step(p);
        exact.stepExact(p, chunk);
        for (StructureId id : kAllStructures) {
            ASSERT_NEAR(euler.temperatures()[id],
                        exact.temperatures()[id], 5e-5)
                << structureName(id) << " at " << watts << " W";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PowerLevels, EulerVsExact,
                         ::testing::Values(0.0, 0.5, 2.0, 8.0));

TEST(SimplifiedRC, CoolsExponentially)
{
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel model(fp, cfg, kDt);
    model.warmStart(uniformPower(2.0));
    const double start =
        model.temperatures()[StructureId::Window] - cfg.t_base;
    ASSERT_GT(start, 1.0);
    const auto &blk = fp.block(StructureId::Window);
    // After exactly one RC with zero power the excess decays to 1/e.
    const auto cycles = static_cast<std::uint64_t>(blk.rc() / kDt);
    model.stepExact(uniformPower(0.0), cycles);
    const double excess =
        model.temperatures()[StructureId::Window] - cfg.t_base;
    EXPECT_NEAR(excess / start, 1.0 / M_E, 0.0025);
}

TEST(SimplifiedRC, WarmStartJumpsToSteadyState)
{
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel model(fp, cfg, kDt);
    PowerVector p;
    p[StructureId::FpExec] = 3.0;
    model.warmStart(p);
    EXPECT_NEAR(model.temperatures()[StructureId::FpExec],
                model.steadyState(StructureId::FpExec, 3.0), 1e-12);
    EXPECT_NEAR(model.temperatures()[StructureId::Lsq], cfg.t_base,
                1e-12);
}

TEST(SimplifiedRC, HottestAndMaxHotspotHelpers)
{
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel model(fp, cfg, kDt);
    PowerVector p;
    p[StructureId::Bpred] = 2.0;
    // RestOfChip heat must not be reported as a hot-spot.
    p[StructureId::RestOfChip] = 50.0;
    model.warmStart(p);
    EXPECT_EQ(model.temperatures().hottest(), StructureId::Bpred);
    EXPECT_NEAR(model.temperatures().maxHotspot(),
                model.steadyState(StructureId::Bpred, 2.0), 1e-12);
}

TEST(SimplifiedRC, RejectsUnstableTimestep)
{
    Floorplan fp;
    ThermalConfig cfg;
    EXPECT_THROW(SimplifiedRCModel(fp, cfg, 1.0), FatalError);
    EXPECT_THROW(SimplifiedRCModel(fp, cfg, 0.0), FatalError);
}

// ------------------------------------------ Fig. 3B network (one core)

/** The detailed Fig. 3B network: a one-core, uncoupled ChipModel. */
multicore::ChipModel
fullModel(const Floorplan &fp, const ThermalConfig &cfg)
{
    return multicore::ChipModel(fp, cfg, kDt, MulticoreConfig{});
}

TEST(FullRC, MatchesSimplifiedWhenIsolated)
{
    // With tangential coupling present but all blocks at the same
    // temperature, the full model's steady state for a single heated
    // block is close to (slightly below) the simplified model's: the
    // lateral paths only bleed a little heat because R_tan >> R_norm.
    Floorplan fp;
    ThermalConfig cfg;
    SimplifiedRCModel simple(fp, cfg, kDt);
    multicore::ChipModel full = fullModel(fp, cfg);

    PowerVector p;
    p[StructureId::IntExec] = 3.0;
    simple.stepExact(p, 3'000'000);
    full.stepSpan({p}, 3'000'000);

    const double t_simple = simple.temperatures()[StructureId::IntExec];
    const double t_full = full.temperatures(0)[StructureId::IntExec];
    EXPECT_LT(t_full, t_simple + 1e-9);
    EXPECT_NEAR(t_full, t_simple, 0.15 * (t_simple - cfg.t_base));
}

TEST(FullRC, NeighboursWarmSlightly)
{
    Floorplan fp;
    ThermalConfig cfg;
    multicore::ChipModel full = fullModel(fp, cfg);
    PowerVector p;
    p[StructureId::DCache] = 5.0;
    full.stepSpan({p}, 3'000'000);
    // The LSQ (adjacent) picks up some lateral heat; far blocks less.
    const double lsq = full.temperatures(0)[StructureId::Lsq];
    const double bpred = full.temperatures(0)[StructureId::Bpred];
    EXPECT_GT(lsq, cfg.t_base);
    EXPECT_GT(lsq, bpred);
}

TEST(FullRC, HeatsinkMovesOnlySlowly)
{
    Floorplan fp;
    ThermalConfig cfg;
    multicore::ChipModel full = fullModel(fp, cfg);
    const double t0 = full.heatsinkTemperature();
    full.stepSpan({uniformPower(5.0)}, 1'000'000); // ~0.7 ms
    // Block temperatures move by degrees; the heatsink by millidegrees.
    EXPECT_LT(std::abs(full.heatsinkTemperature() - t0), 0.05);
    EXPECT_GT(full.temperatures(0)[StructureId::Lsq], cfg.t_base + 1.0);
}

// --------------------------------------------------------- ChipLevelModel

TEST(ChipLevel, TimeConstantIsSeconds)
{
    // One time constant R*C = 0.34 K/W * 60 J/K of a 25 W step covers
    // 1 - 1/e of the way to the steady state.
    FloorplanConfig cfg;
    ChipLevelModel chip(cfg, cfg.ambient, kDt);
    chip.stepExact(25.0, static_cast<std::uint64_t>(0.34 * 60.0 / kDt));
    EXPECT_NEAR(chip.temperature(),
                cfg.ambient + 25.0 * 0.34 * (1.0 - std::exp(-1.0)), 1e-6);
}

TEST(ChipLevel, SteadyStateFromAmbient)
{
    FloorplanConfig cfg;
    ChipLevelModel chip(cfg, cfg.ambient, kDt);
    // Exact update across many chip time constants.
    chip.stepExact(25.0, static_cast<std::uint64_t>(200.0 / kDt));
    EXPECT_NEAR(chip.temperature(), cfg.ambient + 25.0 * 0.34, 0.01);
}

TEST(ChipLevel, BarelyMovesWithinABlockTimescale)
{
    // The paper's core observation: localized heating is orders of
    // magnitude faster than chip-wide heating.
    FloorplanConfig cfg;
    ChipLevelModel chip(cfg, 70.0, kDt);
    chip.stepExact(50.0, 1'000'000); // ~0.7 ms of full-bore power
    EXPECT_LT(std::abs(chip.temperature() - 70.0), 0.01);
}

TEST(ChipLevel, RejectsBadConfig)
{
    FloorplanConfig cfg;
    cfg.chip_capacitance = 0.0;
    EXPECT_THROW(ChipLevelModel(cfg, 27.0, kDt), FatalError);
}

} // namespace
} // namespace thermctl

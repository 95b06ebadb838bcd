/**
 * @file
 * Tests for the floorplan and the paper's Section 4.3 derivations:
 * block areas (Table 3), R/C formulas, the tangential-resistance claim,
 * and the tens-to-hundreds-of-microseconds block time constants.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "thermal/floorplan.hh"
#include "thermal/silicon.hh"

namespace thermctl
{
namespace
{

TEST(Silicon, ResistivityNearPaperValue)
{
    // ~0.01 (m*K)/W at the paper's operating temperatures.
    EXPECT_NEAR(silicon::thermalResistivity(105.0), 0.01, 0.002);
    // Conductivity falls with temperature -> resistivity rises.
    EXPECT_GT(silicon::thermalResistivity(110.0),
              silicon::thermalResistivity(30.0));
}

TEST(Silicon, HeatCapacityNearPaperValue)
{
    EXPECT_NEAR(silicon::volumetricHeatCapacity(105.0), 1.75e6, 0.1e6);
    EXPECT_GT(silicon::volumetricHeatCapacity(110.0),
              silicon::volumetricHeatCapacity(30.0));
}

TEST(Floorplan, Table3Areas)
{
    Floorplan fp;
    // Paper Table 3 block areas in m^2.
    EXPECT_NEAR(fp.block(StructureId::Lsq).area_m2, 5.0e-6, 1e-9);
    EXPECT_NEAR(fp.block(StructureId::Window).area_m2, 9.0e-6, 1e-9);
    EXPECT_NEAR(fp.block(StructureId::Regfile).area_m2, 2.5e-6, 1e-9);
    EXPECT_NEAR(fp.block(StructureId::Bpred).area_m2, 3.5e-6, 1e-9);
    EXPECT_NEAR(fp.block(StructureId::DCache).area_m2, 1.0e-5, 1e-9);
    EXPECT_NEAR(fp.block(StructureId::IntExec).area_m2, 5.0e-6, 1e-9);
    EXPECT_NEAR(fp.block(StructureId::FpExec).area_m2, 5.0e-6, 1e-9);
    EXPECT_NEAR(fp.dieAreaMm2(), 100.0, 1e-6);
}

TEST(Floorplan, CapacitanceFollowsPhysics)
{
    FloorplanConfig cfg;
    Floorplan fp(cfg);
    const double c_v = silicon::volumetricHeatCapacity(
        cfg.reference_temp);
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        const auto &blk = fp.block(static_cast<StructureId>(i));
        EXPECT_NEAR(blk.capacitance,
                    c_v * blk.area_m2 * cfg.active_layer_m,
                    1e-12)
            << structureName(blk.id);
    }
}

TEST(Floorplan, ResistanceInverselyProportionalToArea)
{
    FloorplanConfig cfg;
    // Same spreading factor everywhere isolates the 1/A dependence.
    cfg.k_spread.fill(10.0);
    Floorplan fp(cfg);
    const auto &lsq = fp.block(StructureId::Lsq);      // 5 mm^2
    const auto &dcache = fp.block(StructureId::DCache); // 10 mm^2
    EXPECT_NEAR(lsq.resistance / dcache.resistance, 2.0, 1e-9);
}

TEST(Floorplan, BlockTimeConstantsInPaperRange)
{
    Floorplan fp;
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        const double rc_us = fp.block(id).rc() * 1e6;
        EXPECT_GT(rc_us, 20.0) << structureName(id);
        EXPECT_LT(rc_us, 1000.0) << structureName(id);
    }
}

TEST(Floorplan, TangentialResistancesDominateNormalOnes)
{
    // The paper's simplification argument: R_tangential is orders of
    // magnitude above R_normal, so lateral heat flow can be ignored.
    Floorplan fp;
    ASSERT_FALSE(fp.tangential().empty());
    for (const auto &tan : fp.tangential()) {
        const double r_norm_a = fp.block(tan.a).resistance;
        const double r_norm_b = fp.block(tan.b).resistance;
        EXPECT_GT(tan.resistance, 10.0 * std::max(r_norm_a, r_norm_b))
            << structureName(tan.a) << "-" << structureName(tan.b);
    }
}

TEST(Floorplan, AdjacencyMatchesLayout)
{
    Floorplan fp;
    auto adjacent = [&](StructureId a, StructureId b) {
        for (const auto &tan : fp.tangential())
            if ((tan.a == a && tan.b == b) || (tan.a == b && tan.b == a))
                return true;
        return false;
    };
    // D-cache and LSQ share an edge; D-cache and IntExec do not.
    EXPECT_TRUE(adjacent(StructureId::DCache, StructureId::Lsq));
    EXPECT_FALSE(adjacent(StructureId::DCache, StructureId::IntExec));
    // Everything in the second row touches RestOfChip.
    EXPECT_TRUE(adjacent(StructureId::Window, StructureId::RestOfChip));
    EXPECT_TRUE(adjacent(StructureId::Bpred, StructureId::RestOfChip));
}

TEST(Floorplan, ChipLevelConstantsFromPaper)
{
    FloorplanConfig cfg;
    EXPECT_NEAR(cfg.chip_resistance, 0.34, 1e-12);
    EXPECT_NEAR(cfg.chip_capacitance, 60.0, 1e-12);
    // Chip-level RC is ~20 s: orders of magnitude above block RC.
    Floorplan fp(cfg);
    const double chip_rc = cfg.chip_resistance * cfg.chip_capacitance;
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        EXPECT_GT(chip_rc, 1e4 * fp.block(id).rc());
    }
}

TEST(Floorplan, RejectsBadConfig)
{
    FloorplanConfig cfg;
    cfg.die_thickness_m = 0.0;
    EXPECT_THROW(Floorplan{cfg}, FatalError);
    cfg = FloorplanConfig{};
    cfg.active_layer_m = 1.0; // thicker than the die
    EXPECT_THROW(Floorplan{cfg}, FatalError);
}

} // namespace
} // namespace thermctl

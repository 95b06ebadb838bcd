/**
 * @file
 * Tests for the CACTI-lite array models and the Wattch-style structure
 * power model, including the cc0-cc3 conditional-clocking semantics.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "power/array.hh"
#include "power/model.hh"

namespace thermctl
{
namespace
{

Technology
tech()
{
    return Technology{};
}

TEST(ArrayModel, EnergyGrowsWithGeometry)
{
    ArrayEnergyModel small(
        ArrayGeometry{.rows = 64, .cols_bits = 64}, tech());
    ArrayEnergyModel tall(
        ArrayGeometry{.rows = 256, .cols_bits = 64}, tech());
    ArrayEnergyModel wide(
        ArrayGeometry{.rows = 64, .cols_bits = 256}, tech());
    EXPECT_GT(tall.readEnergy(), small.readEnergy());
    EXPECT_GT(wide.readEnergy(), small.readEnergy());
    EXPECT_GT(small.readEnergy(), 0.0);
}

TEST(ArrayModel, MorePortsCostMore)
{
    ArrayEnergyModel one(
        ArrayGeometry{.rows = 128, .cols_bits = 64, .read_ports = 1,
                      .write_ports = 1},
        tech());
    ArrayEnergyModel many(
        ArrayGeometry{.rows = 128, .cols_bits = 64, .read_ports = 6,
                      .write_ports = 4},
        tech());
    EXPECT_GT(many.readEnergy(), one.readEnergy());
    EXPECT_GT(many.writeEnergy(), one.writeEnergy());
}

TEST(ArrayModel, BankingAddsRoutingButBoundsBitlines)
{
    // Single subarray.
    ArrayEnergyModel flat(
        ArrayGeometry{.rows = 512, .cols_bits = 512}, tech());
    // Same active subarray inside a much larger banked structure.
    ArrayEnergyModel banked(
        ArrayGeometry{.rows = 512, .cols_bits = 512,
                      .total_bits = 16 * 1024 * 1024},
        tech());
    EXPECT_GT(banked.readEnergy(), flat.readEnergy());
    // Routing is a modest adder, not a multiplier blow-up.
    EXPECT_LT(banked.readEnergy(), 4.0 * flat.readEnergy());
}

TEST(ArrayModel, WriteCostsFullSwing)
{
    ArrayEnergyModel m(ArrayGeometry{.rows = 256, .cols_bits = 128},
                       tech());
    // Full-rail writes cost more than reduced-swing reads per bitline,
    // but reads pay for sense amps; both must be positive.
    EXPECT_GT(m.writeEnergy(), 0.0);
    EXPECT_GT(m.readEnergy(), 0.0);
}

TEST(ArrayModel, RejectsEmptyGeometry)
{
    EXPECT_THROW(ArrayEnergyModel(ArrayGeometry{}, tech()), FatalError);
}

TEST(CamModel, SearchScalesWithEntries)
{
    CamEnergyModel small(CamGeometry{.entries = 16, .tag_bits = 40},
                         tech());
    CamEnergyModel big(CamGeometry{.entries = 128, .tag_bits = 40},
                       tech());
    EXPECT_GT(big.searchEnergy(), small.searchEnergy());
    EXPECT_GT(small.searchEnergy(), 0.0);
    EXPECT_GT(small.writeEnergy(), 0.0);
}

TEST(CamModel, RejectsEmptyGeometry)
{
    EXPECT_THROW(CamEnergyModel(CamGeometry{}, tech()), FatalError);
}

// -------------------------------------------------------------- PowerModel

PowerModel
defaultModel(ClockGatingStyle style = ClockGatingStyle::Cc3)
{
    PowerConfig cfg;
    cfg.gating = style;
    return PowerModel(cfg, CpuConfig{}, MemoryHierarchyConfig{});
}

CpuActivity
busyActivity()
{
    CpuActivity act;
    act.icache_accesses = 1;
    act.bpred_lookups = 2;
    act.bpred_updates = 2;
    act.decoded_ops = 4;
    act.dispatched_ops = 4;
    act.issued_int = 4;
    act.issued_fp = 2;
    act.issued_mem = 2;
    act.wakeup_broadcasts = 6;
    act.regfile_reads = 12;
    act.regfile_writes = 6;
    act.lsq_accesses = 6;
    act.l1d_accesses = 2;
    act.l1i_accesses = 1;
    act.l2_accesses = 2;
    act.int_alu_ops = 4;
    act.int_mult_ops = 1;
    act.fp_alu_ops = 2;
    act.fp_mult_ops = 1;
    act.committed_ops = 4;
    return act;
}

TEST(PowerModel, PeaksArePositiveAndPlausible)
{
    auto pm = defaultModel();
    for (StructureId id : kAllStructures) {
        EXPECT_GT(pm.peak()[id], 0.5) << structureName(id);
        EXPECT_LT(pm.peak()[id], 50.0) << structureName(id);
    }
    // Chip-wide peak in the published 0.18 um high-performance range.
    EXPECT_GT(pm.peak().total(), 40.0);
    EXPECT_LT(pm.peak().total(), 120.0);
}

TEST(PowerModel, Cc3IdleFloorIsTenPercent)
{
    auto pm = defaultModel(ClockGatingStyle::Cc3);
    CpuActivity idle;
    auto p = pm.cyclePower(idle);
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        EXPECT_NEAR(p[id], 0.1 * pm.peak()[id], 1e-9)
            << structureName(id);
    }
}

TEST(PowerModel, Cc2IdleIsZero)
{
    auto pm = defaultModel(ClockGatingStyle::Cc2);
    CpuActivity idle;
    auto p = pm.cyclePower(idle);
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i)
        EXPECT_DOUBLE_EQ(p[static_cast<StructureId>(i)], 0.0);
}

TEST(PowerModel, Cc1IsAllOrNothing)
{
    auto pm = defaultModel(ClockGatingStyle::Cc1);
    CpuActivity act;
    act.int_alu_ops = 1; // tiny activity
    auto p = pm.cyclePower(act);
    EXPECT_DOUBLE_EQ(p[StructureId::IntExec],
                     pm.peak()[StructureId::IntExec]);
    EXPECT_DOUBLE_EQ(p[StructureId::FpExec], 0.0);
}

TEST(PowerModel, Cc0AlwaysPeak)
{
    auto pm = defaultModel(ClockGatingStyle::Cc0);
    CpuActivity idle;
    auto p = pm.cyclePower(idle);
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        EXPECT_DOUBLE_EQ(p[id], pm.peak()[id]);
    }
}

TEST(PowerModel, BusyCyclePowerBoundedByPeak)
{
    auto pm = defaultModel();
    auto p = pm.cyclePower(busyActivity());
    for (StructureId id : kAllStructures) {
        EXPECT_LE(p[id], pm.peak()[id] + 1e-9) << structureName(id);
        EXPECT_GT(p[id], 0.0) << structureName(id);
    }
}

TEST(PowerModel, PowerScalesWithActivity)
{
    auto pm = defaultModel(ClockGatingStyle::Cc2);
    CpuActivity one;
    one.int_alu_ops = 1;
    CpuActivity two;
    two.int_alu_ops = 2;
    EXPECT_NEAR(pm.cyclePower(two)[StructureId::IntExec],
                2.0 * pm.cyclePower(one)[StructureId::IntExec], 1e-9);
}

TEST(PowerModel, FpActivityHeatsOnlyFpExec)
{
    auto pm = defaultModel(ClockGatingStyle::Cc2);
    CpuActivity act;
    act.fp_alu_ops = 2;
    auto p = pm.cyclePower(act);
    EXPECT_GT(p[StructureId::FpExec], 0.0);
    EXPECT_DOUBLE_EQ(p[StructureId::IntExec], 0.0);
    EXPECT_DOUBLE_EQ(p[StructureId::DCache], 0.0);
}

TEST(PowerModel, ExcessEventCountsClampToPeak)
{
    auto pm = defaultModel(ClockGatingStyle::Cc2);
    CpuActivity act;
    act.int_alu_ops = 1000; // absurd count
    auto p = pm.cyclePower(act);
    EXPECT_LE(p[StructureId::IntExec],
              pm.peak()[StructureId::IntExec] + 1e-9);
}

TEST(PowerModel, RestOfChipHasUngateableBase)
{
    auto pm = defaultModel(ClockGatingStyle::Cc2);
    CpuActivity idle;
    auto p = pm.cyclePower(idle);
    PowerConfig cfg;
    EXPECT_GE(p[StructureId::RestOfChip], cfg.rest_base_watts - 1e-9);
}

TEST(PowerModel, RejectsBadConfig)
{
    PowerConfig cfg;
    cfg.idle_fraction = 1.5;
    EXPECT_THROW(
        PowerModel(cfg, CpuConfig{}, MemoryHierarchyConfig{}),
        FatalError);
    cfg = PowerConfig{};
    cfg.tech.vdd = 0.0;
    EXPECT_THROW(
        PowerModel(cfg, CpuConfig{}, MemoryHierarchyConfig{}),
        FatalError);
}

TEST(PowerModel, StructureScaleMultipliesEnergy)
{
    PowerConfig cfg;
    cfg.gating = ClockGatingStyle::Cc2;
    PowerModel base(cfg, CpuConfig{}, MemoryHierarchyConfig{});
    cfg.structure_scale[static_cast<std::size_t>(StructureId::Bpred)] *=
        2.0;
    PowerModel scaled(cfg, CpuConfig{}, MemoryHierarchyConfig{});
    EXPECT_NEAR(scaled.peak()[StructureId::Bpred],
                2.0 * base.peak()[StructureId::Bpred], 1e-9);
}

} // namespace
} // namespace thermctl

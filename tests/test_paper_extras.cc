/**
 * @file
 * Tests for the later-added paper-grounded features: temperature-
 * dependent leakage, the hierarchical (toggling + V/f backup) policy,
 * settling-time-constrained design, and HotSpot-format floorplan I/O.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "control/analysis.hh"
#include "control/tuning.hh"
#include "power/model.hh"
#include "sim/simulator.hh"
#include "thermal/floorplan.hh"
#include "workload/spec_profiles.hh"

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

// -------------------------------------------------------------- leakage

TEST(Leakage, DisabledByDefault)
{
    PowerModel pm(PowerConfig{}, CpuConfig{}, MemoryHierarchyConfig{});
    std::array<Celsius, kNumStructures> temps;
    temps.fill(110.0);
    const auto leak = pm.leakagePower(temps);
    for (double w : leak.value)
        EXPECT_DOUBLE_EQ(w, 0.0);
}

TEST(Leakage, ExponentialInTemperature)
{
    PowerConfig cfg;
    cfg.leakage_enabled = true;
    cfg.leakage_fraction_at_ref = 0.05;
    cfg.leakage_ref_temp = 85.0;
    cfg.leakage_doubling_c = 10.0;
    PowerModel pm(cfg, CpuConfig{}, MemoryHierarchyConfig{});

    std::array<Celsius, kNumStructures> at_ref, plus10, plus20;
    at_ref.fill(85.0);
    plus10.fill(95.0);
    plus20.fill(105.0);
    const auto l0 = pm.leakagePower(at_ref);
    const auto l1 = pm.leakagePower(plus10);
    const auto l2 = pm.leakagePower(plus20);
    for (StructureId id : kAllStructures) {
        EXPECT_NEAR(l0[id], 0.05 * pm.peak()[id], 1e-9);
        EXPECT_NEAR(l1[id], 2.0 * l0[id], 1e-9);
        EXPECT_NEAR(l2[id], 4.0 * l0[id], 1e-9);
    }
}

TEST(Leakage, ClosesThermalFeedbackLoopInSimulation)
{
    auto max_temp = [](bool leakage) {
        SimConfig cfg;
        cfg.workload = specProfile("186.crafty");
        cfg.power.leakage_enabled = leakage;
        cfg.power.leakage_fraction_at_ref = 0.05;
        Simulator sim(cfg);
        sim.warmUp(200000);
        sim.run(300000);
        return sim.dtm().stats().max_temperature;
    };
    const double without = max_temp(false);
    const double with = max_temp(true);
    // Leakage adds heat; the exponential loop amplifies it.
    EXPECT_GT(with, without + 0.3);
}

// --------------------------------------------------------- hierarchical

TEST(Hierarchical, BackupOverridesOnlyNearEmergency)
{
    auto primary = std::make_unique<FixedTogglePolicy>(0.5, 110.8,
                                                       1000, "toggle2");
    HierarchicalPolicy policy(std::move(primary), 111.75, 0.7, 5000);
    // Hot but below the backup trigger: primary only.
    auto cmd = policy.onSample(uniformTemps(111.2), 0);
    EXPECT_DOUBLE_EQ(cmd.duty, 0.5);
    EXPECT_DOUBLE_EQ(cmd.freq_scale, 1.0);
    // Truly close to emergency: backup engages on top of the primary.
    cmd = policy.onSample(uniformTemps(111.78), 100);
    EXPECT_DOUBLE_EQ(cmd.duty, 0.5);
    EXPECT_DOUBLE_EQ(cmd.freq_scale, 0.7);
    // Cooled, but still inside the backup's policy delay.
    cmd = policy.onSample(uniformTemps(110.0), 2000);
    EXPECT_DOUBLE_EQ(cmd.freq_scale, 0.7);
    // Delay expired.
    cmd = policy.onSample(uniformTemps(110.0), 10000);
    EXPECT_DOUBLE_EQ(cmd.freq_scale, 1.0);
    EXPECT_EQ(policy.name(), "toggle2+vf");
}

TEST(Hierarchical, ValidatesArguments)
{
    EXPECT_THROW(HierarchicalPolicy(nullptr, 111.75, 0.7, 1),
                 FatalError);
    EXPECT_THROW(HierarchicalPolicy(std::make_unique<NoDtmPolicy>(),
                                    111.75, 1.0, 1),
                 FatalError);
}

TEST(Hierarchical, RescuesDegradedCooling)
{
    // With the base temperature near the emergency level, toggling
    // saturates at the clock-gating floor and cannot stay safe; the
    // hierarchical V/f backup restores safety.
    auto run = [](DtmPolicyKind kind) {
        SimConfig cfg;
        cfg.workload = specProfile("301.apsi");
        cfg.thermal.t_base = 110.2; // degraded cooling
        cfg.policy.kind = kind;
        Simulator sim(cfg);
        sim.warmUp(300000);
        sim.run(500000);
        return sim.dtm().stats();
    };
    const auto pid_only = run(DtmPolicyKind::PID);
    const auto hier = run(DtmPolicyKind::Hierarchical);
    EXPECT_GT(pid_only.emergencyFraction(), 0.01);
    EXPECT_LT(hier.emergencyFraction(),
              0.2 * pid_only.emergencyFraction());
    EXPECT_LT(hier.max_temperature, pid_only.max_temperature);
}

// ----------------------------------------------------- settling design

TEST(SettlingDesign, MeetsTheTargetInSimulation)
{
    FopdtPlant plant{.gain = 9.0, .tau = 130e-6, .dead_time = 333e-9};
    const double dt = 667e-9;
    for (double target : {2e-3, 5e-4, 1e-4}) {
        PidConfig cfg = tuneForSettlingTime(ControllerKind::PI, plant,
                                            target, dt);
        cfg.setpoint = 1.0;
        cfg.out_min = -1e12;
        cfg.out_max = 1e12;
        auto resp = simulateClosedLoop(cfg, plant);
        EXPECT_TRUE(resp.settled) << "target " << target;
        EXPECT_LE(resp.settling_time, target) << "target " << target;
        EXPECT_LE(resp.overshoot, 0.25) << "target " << target;
    }
}

TEST(SettlingDesign, TighterTargetsNeedHotterLoops)
{
    FopdtPlant plant{.gain = 9.0, .tau = 130e-6, .dead_time = 333e-9};
    const double dt = 667e-9;
    auto slow = tuneForSettlingTime(ControllerKind::PID, plant, 2e-3,
                                    dt);
    auto fast = tuneForSettlingTime(ControllerKind::PID, plant, 1e-4,
                                    dt);
    EXPECT_GT(fast.ki, slow.ki);
}

TEST(SettlingDesign, RejectsImpossibleRequests)
{
    FopdtPlant plant{.gain = 9.0, .tau = 130e-6, .dead_time = 333e-9};
    EXPECT_THROW(tuneForSettlingTime(ControllerKind::P, plant, 1e-3,
                                     667e-9),
                 FatalError);
    EXPECT_THROW(tuneForSettlingTime(ControllerKind::PI, plant, 0.0,
                                     667e-9),
                 FatalError);
    // Faster than the dead time allows.
    EXPECT_THROW(tuneForSettlingTime(ControllerKind::PI, plant, 1e-7,
                                     667e-9),
                 FatalError);
}

// ----------------------------------------------------------- .flp files

/**
 * Write `fp`'s placement in HotSpot .flp format
 * (`name width_m height_m left_x_m bottom_y_m`).
 */
void
writeFlp(const Floorplan &fp, std::ostream &os)
{
    os << "# name\twidth_m\theight_m\tleft_x_m\tbottom_y_m\n";
    for (StructureId id : kAllStructures) {
        const BlockRect &r = fp.rect(id);
        os << structureName(id) << '\t' << r.w_mm * 1e-3 << '\t'
           << r.h_mm * 1e-3 << '\t' << r.x_mm * 1e-3 << '\t'
           << r.y_mm * 1e-3 << '\n';
    }
}

class FlpTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = std::filesystem::temp_directory_path()
            / "thermctl_test.flp";
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }

    std::filesystem::path path_;
};

TEST_F(FlpTest, WriteThenLoadRoundTrips)
{
    Floorplan original;
    {
        std::ofstream out(path_);
        writeFlp(original, out);
    }
    FloorplanConfig cfg;
    cfg.flp_path = path_.string();
    Floorplan loaded(cfg);
    for (StructureId id : kAllStructures) {
        EXPECT_NEAR(loaded.rect(id).x_mm, original.rect(id).x_mm, 1e-9);
        EXPECT_NEAR(loaded.rect(id).w_mm, original.rect(id).w_mm, 1e-9);
        EXPECT_NEAR(loaded.block(id).resistance,
                    original.block(id).resistance, 1e-9);
        EXPECT_NEAR(loaded.block(id).capacitance,
                    original.block(id).capacitance, 1e-15);
    }
    EXPECT_EQ(loaded.tangential().size(), original.tangential().size());
}

TEST_F(FlpTest, CustomAreasChangeThermalParameters)
{
    // Double the FP unit's area: half the R, double the C.
    Floorplan original;
    std::ostringstream buf;
    writeFlp(original, buf);
    std::string text = buf.str();
    const std::string needle = "fp-exec\t0.0025\t0.002";
    ASSERT_NE(text.find(needle), std::string::npos);
    text.replace(text.find(needle), needle.size(),
                 "fp-exec\t0.005\t0.002");
    {
        std::ofstream out(path_);
        out << text;
    }
    FloorplanConfig cfg;
    cfg.flp_path = path_.string();
    Floorplan modified(cfg);
    EXPECT_NEAR(modified.block(StructureId::FpExec).resistance,
                0.5 * original.block(StructureId::FpExec).resistance,
                1e-9);
    EXPECT_NEAR(modified.block(StructureId::FpExec).capacitance,
                2.0 * original.block(StructureId::FpExec).capacitance,
                1e-12);
}

TEST_F(FlpTest, RejectsBadFiles)
{
    FloorplanConfig cfg;
    cfg.flp_path = "/nonexistent/die.flp";
    EXPECT_THROW(Floorplan{cfg}, FatalError);

    {
        std::ofstream out(path_);
        out << "LSQ 0.0025 0.002 0.005 0\n"; // only one block
    }
    cfg.flp_path = path_.string();
    EXPECT_THROW(Floorplan{cfg}, FatalError);

    {
        std::ofstream out(path_);
        Floorplan fp;
        writeFlp(fp, out);
        out << "mystery 0.001 0.001 0 0\n"; // unknown block
    }
    EXPECT_THROW(Floorplan{cfg}, FatalError);

    {
        std::ofstream out(path_);
        out << "LSQ bogus\n";
    }
    EXPECT_THROW(Floorplan{cfg}, FatalError);
}

TEST_F(FlpTest, CommentsAndBlankLinesIgnored)
{
    {
        std::ofstream out(path_);
        out << "# a comment\n\n";
        Floorplan fp;
        writeFlp(fp, out);
    }
    FloorplanConfig cfg;
    cfg.flp_path = path_.string();
    EXPECT_NO_THROW(Floorplan{cfg});
}

} // namespace
} // namespace thermctl

/**
 * @file
 * Tests for the boxcar power-average proxies (paper Section 6) and the
 * missed-emergency / false-trigger accounting of Tables 9 and 10.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "thermal/boxcar.hh"

namespace thermctl
{
namespace
{

/** The average power that holds block `id` at the emergency level. */
double
triggerPower(const Floorplan &fp, const ThermalConfig &cfg, StructureId id)
{
    return (cfg.t_emergency - cfg.t_base) / fp.block(id).resistance;
}

TEST(StructureBoxcar, TriggerPowerFollowsThermalLaw)
{
    Floorplan fp;
    ThermalConfig cfg;
    for (StructureId id : kAllStructures) {
        for (double scale : {0.999, 1.001}) {
            StructureBoxcarProxy proxy(fp, cfg, 10, cfg.t_emergency);
            PowerVector p;
            p[id] = scale * triggerPower(fp, cfg, id);
            for (int i = 0; i < 10; ++i)
                proxy.add(p);
            EXPECT_EQ(proxy.triggered(id), scale > 1.0)
                << structureName(id) << " at " << scale;
        }
    }
}

TEST(StructureBoxcar, TriggersOnSustainedPower)
{
    Floorplan fp;
    ThermalConfig cfg;
    StructureBoxcarProxy proxy(fp, cfg, 100, cfg.t_emergency);
    const double p_trig = triggerPower(fp, cfg, StructureId::IntExec);

    PowerVector hot;
    hot[StructureId::IntExec] = 1.2 * p_trig;
    for (int i = 0; i < 100; ++i)
        proxy.add(hot);
    EXPECT_TRUE(proxy.triggered(StructureId::IntExec));
    EXPECT_FALSE(proxy.triggered(StructureId::FpExec));
}

TEST(StructureBoxcar, LargeWindowMissesShortBurst)
{
    // The paper's core criticism: a burst much shorter than the window
    // barely moves the average although the RC temperature spikes.
    Floorplan fp;
    ThermalConfig cfg;
    StructureBoxcarProxy proxy(fp, cfg, 500000, cfg.t_emergency);
    const double p_trig = triggerPower(fp, cfg, StructureId::FpExec);

    PowerVector idle;
    PowerVector burst;
    burst[StructureId::FpExec] = 3.0 * p_trig;
    for (int i = 0; i < 400000; ++i)
        proxy.add(idle);
    for (int i = 0; i < 20000; ++i) // intense but short burst
        proxy.add(burst);
    EXPECT_FALSE(proxy.triggered(StructureId::FpExec));
}

TEST(StructureBoxcar, RejectsZeroWindow)
{
    Floorplan fp;
    ThermalConfig cfg;
    EXPECT_THROW(StructureBoxcarProxy(fp, cfg, 0, cfg.t_emergency),
                 FatalError);
}

TEST(ChipBoxcar, FixedWattageTrigger)
{
    ChipBoxcarProxy proxy(10, 47.0);
    for (int i = 0; i < 10; ++i)
        proxy.add(40.0);
    EXPECT_FALSE(proxy.triggered());
    for (int i = 0; i < 10; ++i)
        proxy.add(50.0);
    EXPECT_TRUE(proxy.triggered());
}

TEST(ChipBoxcar, RejectsNonPositiveTrigger)
{
    EXPECT_THROW(ChipBoxcarProxy(10, 0.0), FatalError);
}

TEST(ProxyComparison, CountsAllFourOutcomes)
{
    ProxyComparison cmp;
    cmp.record(true, true);   // agree hot
    cmp.record(true, false);  // missed
    cmp.record(false, true);  // false trigger
    cmp.record(false, false); // agree cool
    EXPECT_EQ(cmp.cycles, 4u);
    EXPECT_EQ(cmp.reference_emergencies, 2u);
    EXPECT_EQ(cmp.proxy_triggers, 2u);
    EXPECT_EQ(cmp.missed, 1u);
    EXPECT_EQ(cmp.false_triggers, 1u);
    EXPECT_DOUBLE_EQ(cmp.missRate(), 0.5);
    EXPECT_DOUBLE_EQ(cmp.falseTriggerRate(), 0.25);
}

TEST(ProxyComparison, EmptyRatesAreZero)
{
    ProxyComparison cmp;
    EXPECT_DOUBLE_EQ(cmp.missRate(), 0.0);
    EXPECT_DOUBLE_EQ(cmp.falseTriggerRate(), 0.0);
}

TEST(ProxyComparison, BoxcarVsRcOnBurstyTrace)
{
    // End-to-end miniature of the paper's Table 9 experiment: a bursty
    // power trace evaluated by the RC model (reference) and a 10 K-cycle
    // boxcar proxy. The proxy must miss a substantial share of the RC
    // model's emergency cycles.
    Floorplan fp;
    ThermalConfig cfg;
    const double dt = 1.0 / 1.5e9;
    SimplifiedRCModel rc(fp, cfg, dt);
    StructureBoxcarProxy proxy(fp, cfg, 10000, cfg.t_emergency);
    ProxyComparison cmp;

    const auto id = StructureId::IntExec;
    const double p_trig = triggerPower(fp, cfg, id);
    // Pre-heat near the threshold so bursts cross quickly.
    PowerVector warm;
    warm[id] = 0.95 * p_trig;
    rc.warmStart(warm);

    std::uint64_t t = 0;
    for (int burst = 0; burst < 5; ++burst) {
        for (int i = 0; i < 60000; ++i, ++t) {
            PowerVector p;
            p[id] = (i < 30000) ? 1.3 * p_trig : 0.6 * p_trig;
            rc.step(p);
            proxy.add(p);
            cmp.record(rc.temperatures()[id] > cfg.t_emergency,
                       proxy.triggered(id));
        }
    }
    EXPECT_GT(cmp.reference_emergencies, 10000u);
    EXPECT_GT(cmp.missed, 0u);
    EXPECT_GT(cmp.missRate(), 0.05);
}

} // namespace
} // namespace thermctl

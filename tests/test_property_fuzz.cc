/**
 * @file
 * Property/fuzz tests pitting model implementations against independent
 * reference implementations under randomized inputs.
 */

#include <algorithm>
#include <list>
#include <map>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/random.hh"
#include "control/pid.hh"
#include "dtm/actuator.hh"
#include "thermal/rc_model.hh"

namespace thermctl
{
namespace
{

// ------------------------------------------------ cache vs reference LRU

/** Geometry parameter: {size_kb, assoc, block_bytes}. */
struct CacheGeom
{
    std::uint64_t size_kb;
    std::uint32_t assoc;
    std::uint32_t block;
};

class CacheVsReference : public ::testing::TestWithParam<CacheGeom>
{
};

/**
 * Oracle: per-set LRU lists over block addresses, implemented the naive
 * way. Every access decision (hit/miss, victim writeback) must match
 * the production cache exactly.
 */
TEST_P(CacheVsReference, ExactHitMissAgreement)
{
    const auto geom = GetParam();
    CacheConfig cfg{.name = "fuzz",
                    .size_bytes = geom.size_kb * 1024,
                    .assoc = geom.assoc,
                    .block_bytes = geom.block,
                    .hit_latency = 1};
    Cache cache(cfg);

    const std::uint32_t num_sets = static_cast<std::uint32_t>(
        cfg.size_bytes / cfg.block_bytes / cfg.assoc);
    struct RefLine
    {
        Addr block_addr;
        bool dirty;
    };
    std::vector<std::list<RefLine>> ref(num_sets); // front = MRU

    Rng rng(geom.size_kb * 131 + geom.assoc * 17 + geom.block);
    for (int i = 0; i < 50000; ++i) {
        // Addresses concentrated enough to generate plenty of evictions.
        const Addr addr = rng.below(4 * cfg.size_bytes);
        const bool is_write = rng.chance(0.3);
        const Addr blk = addr / cfg.block_bytes * cfg.block_bytes;
        const std::uint32_t set =
            static_cast<std::uint32_t>((addr / cfg.block_bytes)
                                       % num_sets);

        // Reference decision.
        auto &lines = ref[set];
        auto it = std::find_if(lines.begin(), lines.end(),
                               [&](const RefLine &l) {
                                   return l.block_addr == blk;
                               });
        bool ref_hit = it != lines.end();
        bool ref_writeback = false;
        Addr ref_victim = 0;
        if (ref_hit) {
            it->dirty = it->dirty || is_write;
            lines.splice(lines.begin(), lines, it); // move to MRU
        } else {
            if (lines.size() == cfg.assoc) {
                const RefLine &victim = lines.back();
                if (victim.dirty) {
                    ref_writeback = true;
                    ref_victim = victim.block_addr;
                }
                lines.pop_back();
            }
            lines.push_front(RefLine{blk, is_write});
        }

        const auto result = cache.access(addr, is_write);
        ASSERT_EQ(result.hit, ref_hit) << "access " << i;
        ASSERT_EQ(result.writeback, ref_writeback) << "access " << i;
        if (ref_writeback) {
            ASSERT_EQ(result.victim_addr, ref_victim) << "access " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(CacheGeom{1, 1, 32}, CacheGeom{1, 2, 32},
                      CacheGeom{4, 4, 32}, CacheGeom{4, 2, 64},
                      CacheGeom{8, 8, 16}, CacheGeom{64, 2, 32}));

// ----------------------------------------------------------- PID fuzzing

TEST(PidFuzz, OutputAlwaysWithinLimitsUnderRandomInputs)
{
    Rng rng(777);
    for (int trial = 0; trial < 50; ++trial) {
        PidConfig cfg;
        cfg.kp = rng.uniform(0.0, 50.0);
        cfg.ki = rng.uniform(0.0, 1e6);
        cfg.kd = rng.uniform(0.0, 1e-3);
        cfg.setpoint = rng.uniform(-100.0, 200.0);
        cfg.dt = rng.uniform(1e-7, 1e-3);
        cfg.out_min = 0.0;
        cfg.out_max = 1.0;
        cfg.anti_windup = rng.chance(0.5) ? AntiWindup::Conditional
                                          : AntiWindup::None;
        cfg.integral_init = rng.uniform(0.0, 1.0);
        PidController pid(cfg);
        for (int i = 0; i < 2000; ++i) {
            const double u = pid.update(rng.uniform(-200.0, 400.0));
            ASSERT_GE(u, 0.0);
            ASSERT_LE(u, 1.0);
        }
    }
}

TEST(PidFuzz, ConditionalIntegralStaysInActuatorRange)
{
    Rng rng(778);
    PidConfig cfg;
    cfg.ki = 1e4;
    cfg.setpoint = 10.0;
    cfg.dt = 1e-3;
    cfg.anti_windup = AntiWindup::Conditional;
    PidController pid(cfg);
    // With kp = kd = 0 the output is the integral term itself. Kept in
    // range, it follows clamp(previous + increment) every step; a
    // wound-up integrator would sit past a rail instead and need more
    // than one opposite-sign step to come back.
    double integral = cfg.integral_init;
    for (int i = 0; i < 20000; ++i) {
        const double measurement = rng.uniform(-100.0, 120.0);
        integral = std::clamp(
            integral + cfg.ki * (cfg.setpoint - measurement) * cfg.dt,
            cfg.out_min, cfg.out_max);
        ASSERT_EQ(pid.update(measurement), integral) << "step " << i;
    }
}

// ------------------------------------------------------ actuator fuzzing

TEST(TogglerFuzz, LongRunDutyMatchesLevelUnderChanges)
{
    // Even with the level changing arbitrarily, over any window where
    // the level is constant the realized duty converges to level/7.
    Rng rng(42);
    FetchToggler toggler;
    for (int episode = 0; episode < 200; ++episode) {
        const auto level =
            static_cast<std::uint32_t>(rng.below(8));
        toggler.setLevel(level);
        int allowed = 0;
        const int n = 7 * 100;
        for (int i = 0; i < n; ++i)
            allowed += toggler.allowFetch();
        // Up to one frame of slack from the accumulator's carry-in.
        ASSERT_NEAR(allowed, n * level / 7.0, 7.0)
            << "level " << level;
    }
}

// --------------------------------------------------- thermal monotonicity

class ThermalMonotonicity : public ::testing::TestWithParam<double>
{
};

TEST_P(ThermalMonotonicity, MorePowerNeverCoolsAnyBlock)
{
    const double base_watts = GetParam();
    Floorplan fp;
    ThermalConfig cfg;
    const double dt = 1.0 / 1.5e9;
    SimplifiedRCModel lo(fp, cfg, dt);
    SimplifiedRCModel hi(fp, cfg, dt);
    PowerVector p_lo, p_hi;
    p_lo.value.fill(base_watts);
    p_hi.value.fill(base_watts * 1.5 + 0.1);
    Rng rng(9);
    for (int chunk = 0; chunk < 50; ++chunk) {
        const auto cycles = 1000 + rng.below(50000);
        lo.stepExact(p_lo, cycles);
        hi.stepExact(p_hi, cycles);
        for (std::size_t i = 0; i < kNumStructures; ++i) {
            ASSERT_GE(hi.temperatures().value[i] + 1e-12,
                      lo.temperatures().value[i]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PowerLevels, ThermalMonotonicity,
                         ::testing::Values(0.0, 0.5, 1.5, 4.0));

TEST(ThermalFuzz, RandomPowerTraceStaysPhysical)
{
    // Temperatures must stay within [t_base, steady-state of the peak
    // power ever applied] for any random power trace.
    Floorplan fp;
    ThermalConfig cfg;
    const double dt = 1.0 / 1.5e9;
    SimplifiedRCModel model(fp, cfg, dt);
    Rng rng(11);
    std::array<double, kNumStructures> max_power{};
    for (int i = 0; i < 200000; ++i) {
        PowerVector p;
        for (std::size_t b = 0; b < kNumStructures; ++b) {
            p.value[b] = rng.uniform(0.0, 6.0);
            max_power[b] = std::max(max_power[b], p.value[b]);
        }
        model.step(p);
    }
    for (StructureId id : kAllStructures) {
        const std::size_t b = static_cast<std::size_t>(id);
        ASSERT_GE(model.temperatures()[id], cfg.t_base - 1e-9);
        ASSERT_LE(model.temperatures()[id],
                  model.steadyState(id, max_power[b]) + 1e-9);
    }
}

} // namespace
} // namespace thermctl

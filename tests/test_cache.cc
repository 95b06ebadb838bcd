/**
 * @file
 * Tests for the cache, TLB and memory-hierarchy models.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/tlb.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace thermctl
{
namespace
{

CacheConfig
smallCache()
{
    return CacheConfig{.name = "test", .size_bytes = 1024, .assoc = 2,
                       .block_bytes = 32, .hit_latency = 1};
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x11f, false).hit); // same 32B block
    EXPECT_FALSE(c.access(0x120, false).hit); // next block
    EXPECT_EQ(c.stats().reads, 4u);
    EXPECT_EQ(c.stats().read_misses, 2u);
}

TEST(Cache, LruEvictionOrder)
{
    Cache c(smallCache()); // 16 sets, stride to same set = 16*32 = 512
    const Addr a = 0x0, b = 0x200, d = 0x400;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);       // a most recent
    c.access(d, false);       // evicts b
    // Hits leave the set's contents alone; b's miss comes last.
    EXPECT_TRUE(c.access(a, false).hit);
    EXPECT_TRUE(c.access(d, false).hit);
    EXPECT_FALSE(c.access(b, false).hit);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache c(smallCache());
    const Addr a = 0x0, b = 0x200, d = 0x400;
    c.access(a, true);  // dirty
    c.access(b, false); // clean
    auto r = c.access(d, false); // evicts a (LRU, dirty)
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, a);
    EXPECT_EQ(c.stats().writebacks, 1u);

    // Clean eviction produces no writeback.
    c.flush();
    c.access(a, false);
    c.access(b, false);
    r = c.access(d, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitSetsDirty)
{
    Cache c(smallCache());
    const Addr a = 0x0, b = 0x200, d = 0x400;
    c.access(a, false);
    c.access(a, true); // now dirty
    c.access(b, false);
    auto r = c.access(d, false);
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(smallCache());
    c.access(0x100, true);
    c.flush();
    EXPECT_FALSE(c.access(0x100, false).hit);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig cfg = smallCache();
    cfg.block_bytes = 24;
    EXPECT_THROW(Cache{cfg}, FatalError);
    cfg = smallCache();
    cfg.assoc = 0;
    EXPECT_THROW(Cache{cfg}, FatalError);
    cfg = smallCache();
    cfg.size_bytes = 1000;
    EXPECT_THROW(Cache{cfg}, FatalError);
}

/** Property: footprint vs capacity determines the steady-state miss rate. */
class CacheFootprint : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheFootprint, SteadyStateMissRate)
{
    const std::uint64_t footprint = GetParam();
    Cache c(CacheConfig{.name = "fp", .size_bytes = 64 * 1024, .assoc = 2,
                        .block_bytes = 32, .hit_latency = 1});
    Rng rng(footprint);
    // Warm up.
    for (int i = 0; i < 50000; ++i)
        c.access(rng.below(footprint) & ~Addr{7}, false);
    const auto warm = c.stats();
    for (int i = 0; i < 50000; ++i)
        c.access(rng.below(footprint) & ~Addr{7}, false);
    const auto final = c.stats();
    const double misses = double(final.misses() - warm.misses());
    const double accesses = double(final.accesses() - warm.accesses());
    const double miss_rate = misses / accesses;
    if (footprint <= 32 * 1024) {
        EXPECT_LT(miss_rate, 0.01) << "footprint " << footprint;
    } else if (footprint >= 1024 * 1024) {
        EXPECT_GT(miss_rate, 0.5) << "footprint " << footprint;
    }
}

INSTANTIATE_TEST_SUITE_P(Footprints, CacheFootprint,
                         ::testing::Values(16 * 1024, 32 * 1024,
                                           1024 * 1024, 4096 * 1024));

// -------------------------------------------------------------------- TLB

TEST(Tlb, HitAfterFill)
{
    Tlb tlb;
    EXPECT_EQ(tlb.access(0x10000), 30u); // cold miss
    EXPECT_EQ(tlb.access(0x10000), 0u);  // hit
    EXPECT_EQ(tlb.access(0x10000 + 8191), 0u); // same 8K page
    EXPECT_EQ(tlb.access(0x10000 + 8192), 30u); // next page
}

TEST(Tlb, LruEvictionAtCapacity)
{
    Tlb tlb(TlbConfig{.entries = 2, .page_bytes = 8192,
                      .miss_penalty = 30});
    tlb.access(0 << 13);
    tlb.access(1 << 13);
    tlb.access(0 << 13);      // refresh page 0
    tlb.access(2 << 13);      // evicts page 1
    EXPECT_EQ(tlb.access(0 << 13), 0u);
    EXPECT_EQ(tlb.access(1 << 13), 30u);
}

TEST(Tlb, StatsAndFlush)
{
    Tlb tlb;
    tlb.access(0x1000);
    tlb.access(0x1000);
    EXPECT_EQ(tlb.stats().accesses, 2u);
    EXPECT_EQ(tlb.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(tlb.stats().missRate(), 0.5);
    tlb.flush();
    EXPECT_EQ(tlb.access(0x1000), 30u);
}

TEST(Tlb, RejectsBadConfig)
{
    EXPECT_THROW(Tlb(TlbConfig{.entries = 0}), FatalError);
    EXPECT_THROW(Tlb(TlbConfig{.entries = 4, .page_bytes = 1000}),
                 FatalError);
}

// -------------------------------------------------------------- hierarchy

TEST(Hierarchy, LatenciesPerLevel)
{
    MemoryHierarchy mem;
    // Cold access: TLB miss (30) + L1 miss + L2 miss -> memory (100).
    EXPECT_EQ(mem.dataAccess(0x5000, false), 130u);
    // Now TLB and caches are warm.
    EXPECT_EQ(mem.dataAccess(0x5000, false), 1u);
    // Same page, different block: L1 miss -> L2 hit (filled by L1 fill).
    // The first fill put the block in both L1 and L2.
    EXPECT_EQ(mem.dataAccess(0x5020, false), 100u); // L2 also cold
    EXPECT_EQ(mem.dataAccess(0x5020, false), 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy mem;
    mem.dataAccess(0x5000, false); // fills L1+L2
    // Evict 0x5000 from L1 by filling its set (L1: 64KB 2-way,
    // 1024 sets, stride 32KB).
    mem.dataAccess(0x5000 + 32 * 1024, false);
    mem.dataAccess(0x5000 + 64 * 1024, false);
    // 0x5000 now out of L1 but still in L2 (2MB).
    EXPECT_EQ(mem.dataAccess(0x5000, false), 11u);
}

TEST(Hierarchy, InstFetchLatency)
{
    MemoryHierarchy mem;
    EXPECT_EQ(mem.instFetch(0x400000), 100u);
    EXPECT_EQ(mem.instFetch(0x400000), 1u);
}

TEST(Hierarchy, ActivityCountersAccumulateAndReset)
{
    MemoryHierarchy mem;
    mem.dataAccess(0x5000, false);
    mem.instFetch(0x400000);
    const auto &act = mem.activity();
    EXPECT_EQ(act.l1d_accesses, 1u);
    EXPECT_EQ(act.l1i_accesses, 1u);
    EXPECT_EQ(act.tlb_accesses, 1u);
    EXPECT_GE(act.l2_accesses, 2u);
    mem.resetActivity();
    EXPECT_EQ(mem.activity().l1d_accesses, 0u);
}

TEST(Hierarchy, DirtyL1VictimWritesBackToL2)
{
    MemoryHierarchy mem;
    mem.dataAccess(0x5000, true); // dirty in L1
    mem.resetActivity();
    // Force eviction of 0x5000 from L1.
    mem.dataAccess(0x5000 + 32 * 1024, false);
    mem.dataAccess(0x5000 + 64 * 1024, false);
    // One of those misses evicted the dirty line: writeback = extra L2
    // access beyond the two fills.
    EXPECT_GE(mem.activity().l2_accesses, 3u);
    EXPECT_GE(mem.l2().stats().writes, 1u);
}

} // namespace
} // namespace thermctl

/**
 * @file
 * The paper's Table 2 memory hierarchy: split 64 KB 2-way L1 caches with
 * 32 B blocks and 1-cycle latency, a unified 2 MB 4-way write-back L2 with
 * 11-cycle latency, 100-cycle main memory, and a 128-entry fully
 * associative TLB with a 30-cycle miss penalty.
 */

#ifndef THERMCTL_CACHE_HIERARCHY_HH
#define THERMCTL_CACHE_HIERARCHY_HH

#include <cstdint>

#include "cache/cache.hh"
#include "cache/tlb.hh"

namespace thermctl
{

/** Configuration for the full hierarchy. */
struct MemoryHierarchyConfig
{
    CacheConfig l1i{.name = "L1I", .size_bytes = 64 * 1024, .assoc = 2,
                    .block_bytes = 32, .hit_latency = 1};
    CacheConfig l1d{.name = "L1D", .size_bytes = 64 * 1024, .assoc = 2,
                    .block_bytes = 32, .hit_latency = 1};
    CacheConfig l2{.name = "L2", .size_bytes = 2 * 1024 * 1024, .assoc = 4,
                   .block_bytes = 32, .hit_latency = 11};
    TlbConfig tlb{};
    std::uint32_t memory_latency = 100;
};

/** Per-cycle access counts exposed to the power model. */
struct HierarchyActivity
{
    std::uint32_t l1i_accesses = 0;
    std::uint32_t l1d_accesses = 0;
    std::uint32_t l2_accesses = 0;
    std::uint32_t tlb_accesses = 0;

    void
    reset()
    {
        *this = HierarchyActivity{};
    }
};

/**
 * Behavioural + timing model of the memory system. Latencies are returned
 * to the core, which models them as completion delays (ideal MSHRs: any
 * number of misses may be outstanding, as in SimpleScalar's default RUU
 * model).
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryHierarchyConfig &cfg = {});

    /**
     * Data access (load or store) at addr.
     * @return total latency in cycles, including TLB miss penalty.
     */
    std::uint32_t dataAccess(Addr addr, bool is_write);

    /**
     * Instruction fetch of the block containing pc.
     * @return latency in cycles (1 on L1I hit).
     */
    std::uint32_t instFetch(Addr pc);

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }

    /** Activity counters accumulated since the last resetActivity(). */
    const HierarchyActivity &activity() const { return activity_; }

    /** Clear the per-cycle activity counters (called by the core). */
    void resetActivity() { activity_.reset(); }

    const MemoryHierarchyConfig &config() const { return cfg_; }

  private:
    MemoryHierarchyConfig cfg_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Tlb tlb_;
    HierarchyActivity activity_;
};

} // namespace thermctl

#endif // THERMCTL_CACHE_HIERARCHY_HH

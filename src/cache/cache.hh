/**
 * @file
 * Set-associative cache timing/behaviour model with LRU replacement and
 * write-back, write-allocate semantics.
 */

#ifndef THERMCTL_CACHE_CACHE_HH
#define THERMCTL_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace thermctl
{

/** Static geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t size_bytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t block_bytes = 32;
    std::uint32_t hit_latency = 1;
};

/** Behavioural counters for a cache. */
struct CacheStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t misses() const { return read_misses + write_misses; }

    /** @return overall miss ratio in [0, 1]. */
    double
    missRate() const
    {
        const std::uint64_t a = accesses();
        return a ? static_cast<double>(misses()) / static_cast<double>(a)
                 : 0.0;
    }
};

/** Outcome of a single cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;   ///< a dirty victim was evicted
    Addr victim_addr = 0;     ///< block address of the dirty victim
};

/**
 * Set-associative, write-back, write-allocate cache with true-LRU
 * replacement. Purely functional-timing: no data storage.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the block containing addr.
     * Allocates on miss; marks dirty on write.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Invalidate all blocks (dirty contents discarded). */
    void flush();

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    std::uint32_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr blockAddr(Addr tag, std::uint32_t set) const;

    CacheConfig cfg_;
    std::uint32_t num_sets_;
    unsigned block_shift_;
    unsigned set_shift_;
    std::vector<Line> lines_; ///< num_sets_ * assoc, set-major
    std::uint64_t tick_ = 0;
    CacheStats stats_;
};

} // namespace thermctl

#endif // THERMCTL_CACHE_CACHE_HH

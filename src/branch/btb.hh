/**
 * @file
 * Branch target buffer: set-associative tagged cache of branch targets
 * (paper Table 2: 1 K entries, 2-way).
 */

#ifndef THERMCTL_BRANCH_BTB_HH
#define THERMCTL_BRANCH_BTB_HH

#include <optional>
#include <vector>

#include "common/types.hh"

namespace thermctl
{

/** Set-associative branch target buffer with LRU replacement. */
class BranchTargetBuffer
{
  public:
    /**
     * @param entries total entries (power of two)
     * @param ways associativity (must divide entries)
     */
    explicit BranchTargetBuffer(std::size_t entries = 1024,
                                std::size_t ways = 2);

    /** @return the cached target for pc, if present (refreshes LRU). */
    std::optional<Addr> lookup(Addr pc);

    /** Insert/refresh the target for pc (LRU within the set). */
    void update(Addr pc, Addr target);

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lru = 0; ///< larger = more recently used
    };

    std::size_t setIndex(Addr pc) const;
    Addr tagOf(Addr pc) const;

    std::vector<std::vector<Entry>> sets_;
    std::size_t ways_;
    std::uint64_t tick_ = 0;
};

} // namespace thermctl

#endif // THERMCTL_BRANCH_BTB_HH

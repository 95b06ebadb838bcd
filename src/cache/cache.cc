#include "cache/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace thermctl
{

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    if (cfg.block_bytes == 0 || !std::has_single_bit(cfg.block_bytes))
        fatal(cfg.name, ": block size must be a power of two");
    if (cfg.assoc == 0)
        fatal(cfg.name, ": associativity must be positive");
    if (cfg.size_bytes % (static_cast<std::uint64_t>(cfg.block_bytes)
                          * cfg.assoc) != 0) {
        fatal(cfg.name, ": size must be a multiple of block_bytes * assoc");
    }
    num_sets_ = static_cast<std::uint32_t>(
        cfg.size_bytes / cfg.block_bytes / cfg.assoc);
    if (!std::has_single_bit(num_sets_))
        fatal(cfg.name, ": number of sets must be a power of two, got ",
              num_sets_);
    block_shift_ = static_cast<unsigned>(std::countr_zero(cfg.block_bytes));
    set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
    lines_.assign(static_cast<std::size_t>(num_sets_) * cfg.assoc, Line{});
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>((addr >> block_shift_)
                                      & (num_sets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> block_shift_ >> set_shift_;
}

Addr
Cache::blockAddr(Addr tag, std::uint32_t set) const
{
    return ((tag << set_shift_) | set) << block_shift_;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;

    const std::uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * cfg_.assoc];
    ++tick_;

    Line *victim = base;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lru = tick_;
            if (is_write)
                line.dirty = true;
            return {.hit = true};
        }
        if (!line.valid)
            victim = &line;
        else if (victim->valid && line.lru < victim->lru)
            victim = &line;
    }

    // Miss: allocate over the LRU (or an invalid) way.
    if (is_write)
        ++stats_.write_misses;
    else
        ++stats_.read_misses;

    CacheAccessResult result;
    if (victim->valid && victim->dirty) {
        ++stats_.writebacks;
        result.writeback = true;
        result.victim_addr = blockAddr(victim->tag, set);
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lru = tick_;
    return result;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
}

} // namespace thermctl

/**
 * @file
 * One bit per slot of the core's power-of-two window ring, with ordered
 * scans that wrap past the end of the ring.
 *
 * The core keeps its in-flight ops in ring slots; a bitmap over those
 * slots marks a subset (ready ops, stores) so a stage visits only the
 * members, in age order, with one count-zeros per member instead of a
 * walk over the whole window. It compiles as C++17 (the perf harness
 * includes it), hence the count-zeros builtins over <bit>.
 */

#ifndef THERMCTL_CPU_SLOT_BITMAP_HH
#define THERMCTL_CPU_SLOT_BITMAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace thermctl
{

/** A set of ring slots, stored one bit per slot. */
class SlotBitmap
{
  public:
    /** Size for a ring of `slots` slots (a power of two). */
    void
    resize(std::size_t slots)
    {
        words_.assign((slots + 63) / 64, 0);
    }

    void set(std::uint64_t slot) { words_[slot >> 6] |= bit(slot); }
    void clear(std::uint64_t slot) { words_[slot >> 6] &= ~bit(slot); }

    /**
     * Visit the members in slot order from `from` upward, wrapping past
     * the last slot to the ones below `from`: oldest first when `from`
     * is the window's head slot. Each word is read once, before its
     * members are visited, so `visit` may clear the slot it is handed.
     * Stops early when `visit` returns false.
     */
    template <typename Visit>
    void
    scanUp(std::uint64_t from, Visit &&visit) const
    {
        const std::size_t n = words_.size();
        const std::size_t first = from >> 6;
        const std::uint64_t at_or_above = ~std::uint64_t{0} << (from & 63);
        for (std::size_t k = 0; k <= n; ++k) {
            const std::size_t w = (first + k) & (n - 1);
            std::uint64_t word = words_[w];
            if (k == 0)
                word &= at_or_above;
            else if (k == n)
                word &= ~at_or_above;
            for (; word != 0; word &= word - 1) {
                const int b = __builtin_ctzll(word);
                if (!visit(w * 64 + static_cast<std::size_t>(b)))
                    return;
            }
        }
    }

    /**
     * Visit the members in slot order from just below `below` downward,
     * wrapping past slot 0 to the ones at or above `below`: youngest
     * first when `below` is the slot after the window's tail. Stops early
     * when `visit` returns false.
     */
    template <typename Visit>
    void
    scanDown(std::uint64_t below, Visit &&visit) const
    {
        const std::size_t n = words_.size();
        const std::size_t first = below >> 6;
        const std::uint64_t under = bit(below) - 1;
        for (std::size_t k = 0; k <= n; ++k) {
            const std::size_t w = (first - k) & (n - 1);
            std::uint64_t word = words_[w];
            if (k == 0)
                word &= under;
            else if (k == n)
                word &= ~under;
            while (word != 0) {
                const int b = 63 - __builtin_clzll(word);
                word &= ~bit(static_cast<std::uint64_t>(b));
                if (!visit(w * 64 + static_cast<std::size_t>(b)))
                    return;
            }
        }
    }

  private:
    static std::uint64_t bit(std::uint64_t slot)
    {
        return std::uint64_t{1} << (slot & 63);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace thermctl

#endif // THERMCTL_CPU_SLOT_BITMAP_HH

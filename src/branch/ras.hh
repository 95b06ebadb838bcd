/**
 * @file
 * Return-address stack (paper Table 2: 32 entries), with the single-entry
 * checkpoint/repair scheme commonly used with speculative front ends: a
 * prediction records the top-of-stack pointer and value, and a squash
 * restores them.
 */

#ifndef THERMCTL_BRANCH_RAS_HH
#define THERMCTL_BRANCH_RAS_HH

#include <vector>

#include "common/types.hh"

namespace thermctl
{

/** Circular return-address stack. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(std::size_t entries = 32);

    /** Push a return address (call). Wraps and overwrites when full. */
    void push(Addr ret_addr);

    /** Pop the predicted return address (returns 0 when empty). */
    Addr pop();

    /** @return the current top value without popping (0 when empty). */
    Addr top() const;

    /** @return top-of-stack index for checkpointing. */
    std::uint32_t tosIndex() const { return tos_; }

    /** Restore the stack top after a squash. */
    void restore(std::uint32_t tos_index, Addr top_value);

  private:
    std::vector<Addr> stack_;
    std::uint32_t tos_ = 0; ///< index one past the top element
};

} // namespace thermctl

#endif // THERMCTL_BRANCH_RAS_HH

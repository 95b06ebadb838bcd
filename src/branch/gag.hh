/**
 * @file
 * GAg two-level adaptive predictor: one global history register indexing a
 * shared pattern-history table of 2-bit counters (paper Table 2:
 * 4 K entries, 12 history bits).
 */

#ifndef THERMCTL_BRANCH_GAG_HH
#define THERMCTL_BRANCH_GAG_HH

#include <vector>

#include "branch/predictor.hh"

namespace thermctl
{

/** Global-history two-level predictor (GAg). */
class GAgPredictor
{
  public:
    /**
     * @param entries pattern-history table size (power of two)
     * @param history_bits global-history length; the table is indexed by
     *        the low history bits (xor-folded with the PC would make this
     *        gshare; GAg uses history alone, as the paper specifies).
     */
    explicit GAgPredictor(std::size_t entries = 4096,
                          unsigned history_bits = 12);

    /** @return predicted direction under the given history value. */
    bool predictWith(std::uint32_t history) const;

    /** Train the counter selected by the given history value. */
    void updateWith(std::uint32_t history, bool taken);

    std::uint32_t historyMask() const { return history_mask_; }

  private:
    std::vector<Counter2> table_;
    std::size_t index_mask_;
    std::uint32_t history_mask_;
};

} // namespace thermctl

#endif // THERMCTL_BRANCH_GAG_HH

/**
 * @file
 * Bimodal (per-PC 2-bit counter) direction predictor.
 */

#ifndef THERMCTL_BRANCH_BIMODAL_HH
#define THERMCTL_BRANCH_BIMODAL_HH

#include <vector>

#include "branch/predictor.hh"

namespace thermctl
{

/** Classic Smith bimodal predictor: a table of 2-bit counters keyed by PC. */
class BimodalPredictor
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit BimodalPredictor(std::size_t entries = 4096);

    /** @return predicted direction for the branch at pc. */
    bool predict(Addr pc) const;

    /** Train the counter for pc with the resolved direction. */
    void update(Addr pc, bool taken);

  private:
    std::size_t index(Addr pc) const;
    std::vector<Counter2> table_;
    std::size_t mask_;
};

} // namespace thermctl

#endif // THERMCTL_BRANCH_BIMODAL_HH

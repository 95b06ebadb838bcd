/**
 * @file
 * Common types for direction predictors.
 *
 * The simulated front end uses the paper's Table 2 predictor: a hybrid of
 * a 4 K-entry bimodal predictor and a 4 K-entry GAg with 12 bits of global
 * history, selected by a 4 K-entry bimodal-style chooser, plus a 1 K-entry
 * 2-way BTB and a 32-entry return-address stack. Global history is updated
 * speculatively at prediction time and repaired after a misprediction,
 * following the paper's reference to speculative update with repair.
 */

#ifndef THERMCTL_BRANCH_PREDICTOR_HH
#define THERMCTL_BRANCH_PREDICTOR_HH

#include <cstdint>

#include "common/types.hh"

namespace thermctl
{

/** Saturating 2-bit counter helper. */
class Counter2
{
  public:
    /** @param init initial value in [0, 3]; >= 2 predicts taken. */
    explicit Counter2(std::uint8_t init = 1) : value_(init) {}

    bool taken() const { return value_ >= 2; }

    void
    train(bool taken)
    {
        if (taken) {
            if (value_ < 3)
                ++value_;
        } else {
            if (value_ > 0)
                --value_;
        }
    }

  private:
    std::uint8_t value_;
};

/**
 * Everything fetch needs to act on a prediction plus the state required
 * to repair the predictor after a misprediction.
 */
struct BranchPrediction
{
    bool taken = false;        ///< predicted direction
    Addr target = 0;           ///< predicted target (valid when taken)
    bool btb_hit = false;      ///< direct target came from the BTB
    bool used_ras = false;     ///< target popped from the RAS
    bool used_global = false;  ///< chooser selected the GAg component

    // --- repair state captured at prediction time ---
    std::uint32_t history_checkpoint = 0; ///< global history before update
    std::uint32_t ras_checkpoint_tos = 0; ///< RAS top-of-stack index
    Addr ras_checkpoint_addr = 0;         ///< value at RAS top-of-stack
};

/** Aggregate direction/target statistics for a predictor. */
struct BranchPredictorStats
{
    std::uint64_t lookups = 0;
    std::uint64_t cond_lookups = 0;
    std::uint64_t dir_correct = 0;
    std::uint64_t dir_wrong = 0;
    std::uint64_t target_wrong = 0;
};

} // namespace thermctl

#endif // THERMCTL_BRANCH_PREDICTOR_HH

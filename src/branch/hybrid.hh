/**
 * @file
 * The paper's front-end predictor: a hybrid of bimodal and GAg components
 * selected by a bimodal-style chooser (SimpleScalar's "comb" predictor),
 * with BTB, return-address stack, and speculative global-history update
 * repaired after mispredictions.
 */

#ifndef THERMCTL_BRANCH_HYBRID_HH
#define THERMCTL_BRANCH_HYBRID_HH

#include <vector>

#include "branch/bimodal.hh"
#include "branch/btb.hh"
#include "branch/gag.hh"
#include "branch/predictor.hh"
#include "branch/ras.hh"
#include "isa/micro_op.hh"

namespace thermctl
{

/** Configuration of the hybrid predictor (paper Table 2 defaults). */
struct HybridPredictorConfig
{
    std::size_t bimod_entries = 4096;
    std::size_t gag_entries = 4096;
    unsigned gag_history_bits = 12;
    std::size_t chooser_entries = 4096;
    std::size_t btb_entries = 1024;
    std::size_t btb_ways = 2;
    std::size_t ras_entries = 32;
};

/** Hybrid (bimodal + GAg + chooser) branch predictor with BTB and RAS. */
class HybridPredictor
{
  public:
    explicit HybridPredictor(const HybridPredictorConfig &cfg = {});

    /**
     * Predict the branch `op` fetched at op.pc. Speculatively updates the
     * global history (conditional branches) and the RAS (calls/returns);
     * the returned prediction carries the checkpoints needed for repair.
     */
    BranchPrediction predict(const MicroOp &op);

    /**
     * Train tables with the resolved outcome. Must be called exactly once
     * per predicted branch, in program order (thermctl resolves at
     * commit). GAg is trained under the history value captured at
     * prediction time.
     */
    void resolve(const MicroOp &op, const BranchPrediction &pred);

    /**
     * Repair speculative state after a misprediction: rebuild the global
     * history from the prediction-time checkpoint plus the actual
     * direction, and restore the RAS top.
     */
    void repairAfterMispredict(const MicroOp &op,
                               const BranchPrediction &pred);

    const BranchPredictorStats &stats() const { return stats_; }

  private:
    BimodalPredictor bimod_;
    GAgPredictor gag_;
    BimodalPredictor chooser_;
    BranchTargetBuffer btb_;
    ReturnAddressStack ras_;

    std::uint32_t history_ = 0;
    BranchPredictorStats stats_;
};

} // namespace thermctl

#endif // THERMCTL_BRANCH_HYBRID_HH

/**
 * @file
 * Deterministic synthetic workload generator.
 *
 * A SyntheticWorkload expands a WorkloadProfile into an infinite,
 * reproducible stream of micro-ops with genuine program structure: a static
 * set of basic blocks arranged in loops and functions, real register
 * dependences, and region-based memory address streams. The core's branch
 * predictor and caches therefore see learnable (or deliberately
 * unlearnable) behaviour, just as they would replaying a SimpleScalar EIO
 * trace of a real benchmark.
 */

#ifndef THERMCTL_WORKLOAD_SYNTHETIC_HH
#define THERMCTL_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "workload/instruction_stream.hh"
#include "workload/profile.hh"

namespace thermctl
{

/** Infinite micro-op stream synthesized from a WorkloadProfile. */
class SyntheticWorkload : public InstructionStream
{
  public:
    /** Build the static program structure for the given profile. */
    explicit SyntheticWorkload(WorkloadProfile profile);

    MicroOp next() override;
    MicroOp synthesizeAt(Addr pc) override;
    /** `tag` is the phase after the op, the one synthesizeAt() draws from. */
    MicroOp nextAhead(std::uint32_t &tag) override;
    void take(std::uint32_t tag) override { wrong_phase_ = tag; }

    const WorkloadProfile &profile() const { return profile_; }

    /** Index of the currently active phase (0 when no phases defined). */
    std::size_t currentPhase() const { return phase_index_; }

  private:
    /** A static conditional/loop branch with its runtime state. */
    struct StaticBranch
    {
        BranchKind kind = BranchKind::Biased;
        std::uint32_t trip_count = 8;    ///< LoopBack
        double taken_prob = 0.9;         ///< Biased
        std::uint32_t pattern = 0;       ///< Patterned bitmask
        std::uint8_t pattern_len = 4;    ///< Patterned period
        std::uint32_t taken_block = 0;   ///< block executed when taken
        // runtime
        std::uint32_t counter = 0;       ///< loop iteration / pattern pos
    };

    /** A static basic block of the synthetic program. */
    struct Block
    {
        Addr base_pc = 0;
        std::uint8_t len = 4;            ///< micro-ops incl. terminator
        bool ends_in_call = false;
        std::uint32_t callee = 0;        ///< function index when call
        StaticBranch branch;             ///< terminator when not a call
    };

    /** A synthetic leaf function: one block ending in a return. */
    struct Function
    {
        Addr base_pc = 0;
        std::uint8_t len = 4;            ///< micro-ops incl. return
    };

    /** Parameters derived from profile + one phase, with cached draws. */
    struct EffectiveParams
    {
        std::vector<double> op_weights; ///< non-branch class weights
        double op_total = 0.0;          ///< Rng::weightTotal(op_weights)
        double cold_frac = 0.01;
        double warm_frac = 0.06;
        double dep_p = 0.35;
        double dep_log_q = 0.0;         ///< std::log(1.0 - dep_p)
    };

    /** The correct-path op at the cursor; advances the cursor and phase. */
    MicroOp generate();

    void buildProgram();
    /** Validate and derive the parameters of `phase` (null: no phases). */
    EffectiveParams phaseParams(const WorkloadPhase *phase) const;
    void advancePhaseAccounting();

    /** The parameters of the current phase. */
    const EffectiveParams &
    eff() const
    {
        return phase_params_[phase_index_];
    }

    /** Sample a non-branch op class from the effective mix. */
    OpClass sampleOpClass();

    /** Fill dependence and payload fields for a non-terminator op. */
    MicroOp makeBodyOp(Addr pc);

    /** Produce the terminator micro-op of the current block. */
    MicroOp makeTerminator();

    /** Record a produced destination register. */
    void pushDest(RegId reg, bool fp);

    /** Pick a source register with geometric dependence distance. */
    RegId pickSrc(bool fp);

    /** Allocate the next destination register. */
    RegId allocDest(bool fp);

    /** Generate a data memory address for the current phase. */
    Addr genMemAddr();

    WorkloadProfile profile_;
    Rng rng_;

    std::vector<Block> blocks_;
    std::vector<Function> functions_;

    // execution cursor
    bool in_function_ = false;
    std::uint32_t cur_block_ = 0;
    std::uint32_t cur_func_ = 0;
    std::uint8_t cur_off_ = 0;
    std::vector<std::uint32_t> call_stack_; ///< resume block indices

    // dependence tracking
    static constexpr std::size_t kDestRing = 64;
    std::vector<RegId> recent_int_;
    std::vector<RegId> recent_fp_;
    std::size_t int_head_ = 0;
    std::size_t fp_head_ = 0;
    RegId next_int_dest_ = 2;
    RegId next_fp_dest_ = 2;

    // memory address streams
    Addr hot_stride_pos_ = 0;
    Addr warm_stride_pos_ = 0;
    Addr cold_stride_pos_ = 0;

    // phase machinery
    std::size_t phase_index_ = 0;
    std::uint64_t phase_insts_left_ = 0;

    /** One entry per phase (one in all when there are none). */
    std::vector<EffectiveParams> phase_params_;

    // synthesizeAt()'s state. With ops drawn ahead, the core's thread
    // writes it while another thread runs next(): a cache line apart.
    alignas(64) Rng wrong_rng_;
    /**
     * The phase synthesizeAt() draws from: the one in force after the
     * last op the core took, which is phase_index_ unless ops are drawn
     * ahead through nextAhead().
     */
    std::uint32_t wrong_phase_ = 0;
};

} // namespace thermctl

#endif // THERMCTL_WORKLOAD_SYNTHETIC_HH

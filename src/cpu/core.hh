/**
 * @file
 * Cycle-level out-of-order core in the style of SimpleScalar's
 * sim-outorder RUU model, extended per the paper with three additional
 * rename/enqueue stages between decode and issue.
 *
 * The core is trace-driven: an InstructionStream supplies the committed
 * path, and after a branch misprediction the core fetches synthesized
 * wrong-path micro-ops (which occupy resources and dissipate power) until
 * the branch resolves, then squashes and refetches — reproducing the
 * performance and power behaviour of mis-speculated execution.
 *
 * Dynamic thermal management hooks in through setFetchEnabled(): the DTM
 * layer gates fetch cycle by cycle to realize the paper's fetch-toggling
 * actuator at any duty level.
 */

#ifndef THERMCTL_CPU_CORE_HH
#define THERMCTL_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "branch/hybrid.hh"
#include "cache/hierarchy.hh"
#include "cpu/activity.hh"
#include "cpu/config.hh"
#include "cpu/slot_bitmap.hh"
#include "isa/micro_op.hh"
#include "workload/instruction_stream.hh"

namespace thermctl
{

/** Aggregate behavioural statistics for a core run. */
struct CpuStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t fetch_gated_cycles = 0; ///< cycles DTM blocked fetch
    std::uint64_t squashes = 0;
    std::uint64_t wrong_path_ops = 0;

    /** @return committed instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(committed)
                          / static_cast<double>(cycles)
                      : 0.0;
    }
};

/** The simulated out-of-order core. */
class Core
{
  public:
    /**
     * @param cfg static configuration (paper Table 2 defaults)
     * @param stream committed-path instruction source (not owned)
     * @param memory the memory hierarchy (not owned)
     */
    Core(const CpuConfig &cfg, InstructionStream &stream,
         MemoryHierarchy &memory);

    /**
     * Advance the core by one clock cycle. Activity counters for the
     * cycle are available through activity() afterwards.
     */
    void tick();

    /**
     * Gate instruction fetch for the upcoming cycles (the DTM
     * fetch-toggling actuator). Disabling fetch idles the front end only;
     * ops already in flight continue to execute and drain, exactly as in
     * the paper's toggling mechanism.
     */
    void setFetchEnabled(bool enabled) { fetch_enabled_ = enabled; }

    /**
     * Fetch-throttling actuator (paper Section 2.1): fetch happens every
     * cycle, but at most `limit` instructions are fetched (0 = no limit).
     * Unlike toggling, the I-cache and branch predictor are still
     * accessed every cycle — the reason the paper finds throttling
     * "often cannot prevent certain hot spots".
     */
    void setFetchWidthLimit(std::uint32_t limit)
    {
        fetch_width_limit_ = limit;
    }

    /**
     * Speculation-control actuator (paper Section 2.1): while more than
     * `limit` unresolved conditional branches are in flight, no further
     * instructions are fetched (0 = disabled). Ineffective for programs
     * (or phases) with excellent branch prediction, as the paper notes.
     */
    void setSpeculationLimit(std::uint32_t limit)
    {
        speculation_limit_ = limit;
    }

    /** @return in-flight conditional branches not yet resolved. */
    std::uint32_t unresolvedBranches() const
    {
        return unresolved_branches_;
    }

    /** Activity counters of the most recent cycle. */
    const CpuActivity &activity() const { return activity_; }

    const CpuStats &stats() const { return stats_; }
    const HybridPredictor &predictor() const { return bpred_; }
    const CpuConfig &config() const { return cfg_; }

    /** In-flight window occupancy (for tests and probes). */
    std::size_t windowOccupancy() const { return window_count_; }
    std::size_t lsqOccupancy() const { return lsq_occupancy_; }

    /** Reset the behavioural statistics (start of a measurement phase). */
    void resetStats() { stats_ = CpuStats{}; }

  private:
    /** Lifecycle of an in-flight op. */
    enum class OpState : std::uint8_t
    {
        Waiting,   ///< in window, operands outstanding
        Ready,     ///< operands available, not yet issued
        Issued,    ///< executing on a functional unit
        Complete,  ///< result available / store resolved
    };

    /** An op in the frontend pipe or the window. */
    struct InflightOp
    {
        MicroOp op;
        BranchPrediction pred;
        std::uint64_t seq = 0;
        OpState state = OpState::Waiting;
        bool wrong_path = false;
        bool mispredicted = false;   ///< effective prediction was wrong
        bool in_lsq = false;
        std::uint8_t outstanding = 0; ///< unresolved operands
        bool has_forward_store = false;
        std::vector<std::uint64_t> dependents; ///< seqs woken by this op
    };

    /** Entry in the decode/rename pipe. */
    struct FrontendEntry
    {
        MicroOp op;
        BranchPrediction pred;
        bool wrong_path = false;
        bool mispredicted = false;
        std::uint64_t ready_cycle = 0; ///< cycle it may dispatch
    };

    // Pipeline stages, called youngest-first each tick so same-cycle
    // structural interactions resolve like a real pipeline.
    void commitStage();
    void completeStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    void squashYoungerThan(std::uint64_t seq);
    void scheduleCompletion(std::uint64_t seq, std::uint64_t at_cycle);
    InflightOp *findOp(std::uint64_t seq);
    /** Append an entry to the frontend pipe (fetch keeps it in bounds). */
    void
    pushFrontend(const FrontendEntry &entry)
    {
        frontend_[(frontend_head_ + frontend_count_++) & frontend_mask_] =
            entry;
    }
    /** @return the window op `i` places younger than the oldest. */
    InflightOp &
    windowAt(std::size_t i)
    {
        return window_[(window_head_ + i) & window_mask_];
    }
    void wakeDependents(InflightOp &producer);
    void markReady(InflightOp &op);
    std::uint32_t executionLatency(OpClass cls) const;

    CpuConfig cfg_;
    InstructionStream &stream_;
    MemoryHierarchy &memory_;
    HybridPredictor bpred_;

    // Fetch state.
    bool fetch_enabled_ = true;
    std::uint32_t fetch_width_limit_ = 0;
    std::uint32_t speculation_limit_ = 0;
    std::uint32_t unresolved_branches_ = 0;
    Addr fetch_pc_ = 0;
    std::uint64_t fetch_stall_until_ = 0;
    bool on_wrong_path_ = false;
    bool stream_primed_ = false;
    MicroOp pending_correct_op_{};

    // Frontend pipe (decode + rename stages): a ring of
    // bit_ceil(frontend_capacity) entries, the frontend_count_ live ones
    // from frontend_head_ on, oldest first.
    std::vector<FrontendEntry> frontend_;
    std::size_t frontend_mask_ = 0;
    std::size_t frontend_head_ = 0;
    std::size_t frontend_count_ = 0;

    // Window (RUU) as a ring of power-of-two size: an op lives in slot
    // seq & window_mask_, and the live ops are the window_count_ slots
    // from window_head_ on. The ready_slots_ and store_slots_ bitmaps are
    // over the same slots, with a bit set only while its slot holds a
    // live Ready op or store. Seqs are never reused (stale ones linger
    // only in the calendar and dependents lists), so a squash skips
    // next_seq_ forward to the value mapping to the slot after the tail.
    std::vector<InflightOp> window_;
    std::uint64_t window_mask_ = 0;
    std::uint64_t window_head_ = 0; ///< slot of the oldest live op
    std::size_t window_count_ = 0;
    /** Rename map: arch reg -> seq of youngest in-flight producer. */
    std::array<std::uint64_t, kNumArchRegs> last_writer_{};
    std::uint64_t next_seq_ = 1;
    std::size_t lsq_occupancy_ = 0;

    /** Slots whose op is Ready; issue scans it oldest first. */
    SlotBitmap ready_slots_;
    /** Slots holding a store; load forwarding scans it youngest first. */
    SlotBitmap store_slots_;

    // Completion calendar: cycle -> seqs completing that cycle.
    static constexpr std::size_t kCalendarSlots = 256;
    std::array<std::vector<std::uint64_t>, kCalendarSlots> calendar_;

    // Per-cycle scratch, kept so its capacity is reused every cycle.
    std::vector<std::uint64_t> completing_; ///< ops completing this cycle

    // Unpipelined units busy-until cycles.
    std::uint64_t int_div_busy_until_ = 0;
    std::uint64_t fp_div_busy_until_ = 0;

    std::uint64_t now_ = 0;
    CpuActivity activity_;
    CpuStats stats_;
};

} // namespace thermctl

#endif // THERMCTL_CPU_CORE_HH

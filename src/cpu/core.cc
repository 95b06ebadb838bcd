#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace thermctl
{

Core::Core(const CpuConfig &cfg, InstructionStream &stream,
           MemoryHierarchy &memory)
    : cfg_(cfg), stream_(stream), memory_(memory), bpred_(cfg.bpred)
{
    if (cfg.fetch_width == 0 || cfg.dispatch_width == 0
        || cfg.commit_width == 0)
        fatal("core widths must be positive");
    if (cfg.window_size == 0 || cfg.lsq_size == 0)
        fatal("window and LSQ sizes must be positive");
    if (cfg.frontend_capacity < cfg.fetch_width)
        fatal("frontend capacity must hold a full fetch group");
    const std::uint32_t max_latency =
        std::max({cfg.lat_int_div, cfg.lat_fp_div,
                  memory_.config().memory_latency
                      + memory_.config().tlb.miss_penalty});
    if (max_latency + 2 >= kCalendarSlots)
        fatal("completion calendar too small for configured latencies");
    window_.resize(std::bit_ceil(cfg.window_size));
    window_mask_ = window_.size() - 1;
    frontend_.resize(std::bit_ceil(cfg.frontend_capacity));
    frontend_mask_ = frontend_.size() - 1;
    ready_slots_.resize(window_.size());
    store_slots_.resize(window_.size());
    window_head_ = next_seq_ & window_mask_;
}

void
Core::tick()
{
    ++now_;
    activity_.reset();
    memory_.resetActivity();

    commitStage();
    completeStage();
    issueStage();
    dispatchStage();
    fetchStage();

    const auto &mem = memory_.activity();
    activity_.l1d_accesses = mem.l1d_accesses;
    activity_.l1i_accesses = mem.l1i_accesses;
    activity_.l2_accesses = mem.l2_accesses;
    activity_.tlb_accesses = mem.tlb_accesses;

    ++stats_.cycles;
}

// --------------------------------------------------------------------- fetch

void
Core::fetchStage()
{
    if (!fetch_enabled_) {
        ++stats_.fetch_gated_cycles;
        return;
    }
    if (speculation_limit_ != 0
        && unresolved_branches_ >= speculation_limit_) {
        return; // speculation control: wait for branches to resolve
    }
    if (now_ < fetch_stall_until_)
        return;
    if (frontend_count_ + cfg_.fetch_width > cfg_.frontend_capacity)
        return; // dispatch backpressure

    if (!stream_primed_) {
        pending_correct_op_ = stream_.next();
        fetch_pc_ = pending_correct_op_.pc;
        stream_primed_ = true;
    }

    // One I-cache access of fetch-width granularity per cycle (the paper's
    // improved fetch model); a miss stalls fetch for the full latency.
    ++activity_.icache_accesses;
    const std::uint32_t lat = memory_.instFetch(fetch_pc_);
    if (lat > 1) {
        fetch_stall_until_ = now_ + lat;
        return;
    }

    const Addr block_mask = memory_.config().l1i.block_bytes - 1;
    const Addr block_end = (fetch_pc_ | block_mask) + 1;

    std::uint32_t width = cfg_.fetch_width;
    if (fetch_width_limit_ != 0 && fetch_width_limit_ < width)
        width = fetch_width_limit_; // throttling

    for (std::uint32_t n = 0; n < width && fetch_pc_ < block_end;
         ++n) {
        FrontendEntry entry;
        entry.ready_cycle = now_ + cfg_.frontend_depth;
        entry.wrong_path = on_wrong_path_;

        if (on_wrong_path_) {
            entry.op = stream_.synthesizeAt(fetch_pc_);
            fetch_pc_ += 4;
            ++stats_.wrong_path_ops;
            pushFrontend(entry);
            ++stats_.fetched;
            continue;
        }

        if (pending_correct_op_.pc != fetch_pc_)
            panic("fetch desync: expected pc 0x", std::hex,
                  pending_correct_op_.pc, " got 0x", fetch_pc_);

        entry.op = pending_correct_op_;
        pending_correct_op_ = stream_.next();

        if (entry.op.is_branch) {
            entry.pred = bpred_.predict(entry.op);
            ++activity_.bpred_lookups;

            // A taken prediction is only actionable with a target (from
            // the BTB or the RAS); otherwise fetch falls through — the
            // classic BTB-miss-means-not-taken front end.
            const bool eff_taken = entry.pred.taken
                && entry.pred.target != 0;
            const Addr eff_next = eff_taken ? entry.pred.target
                                            : entry.op.nextPc();
            entry.mispredicted = eff_next != entry.op.actualNextPc();

            pushFrontend(entry);
            ++stats_.fetched;

            if (entry.mispredicted) {
                on_wrong_path_ = true;
                fetch_pc_ = eff_next;
                break; // redirect consumes the rest of the fetch cycle
            }
            fetch_pc_ = eff_next;
            if (eff_taken)
                break; // taken branches end the fetch group
            continue;
        }

        fetch_pc_ = entry.op.nextPc();
        pushFrontend(entry);
        ++stats_.fetched;
    }
}

// ------------------------------------------------------------------ dispatch

void
Core::dispatchStage()
{
    for (std::uint32_t n = 0; n < cfg_.dispatch_width; ++n) {
        if (frontend_count_ == 0)
            break;
        const FrontendEntry &fe = frontend_[frontend_head_];
        if (fe.ready_cycle > now_)
            break;
        if (window_count_ >= cfg_.window_size)
            break;
        const bool mem_op = isMemOp(fe.op.op);
        if (mem_op && lsq_occupancy_ >= cfg_.lsq_size)
            break;
        // Popping leaves `fe` intact: only fetch, later in the cycle,
        // refills the slot.
        frontend_head_ = (frontend_head_ + 1) & frontend_mask_;
        --frontend_count_;

        // The slot after the tail is free; reusing it in place keeps
        // the dependents vector's capacity.
        const std::uint64_t seq = next_seq_++;
        const std::uint64_t slot = seq & window_mask_;
        InflightOp &inflight = window_[slot];
        inflight.op = fe.op;
        inflight.pred = fe.pred;
        inflight.seq = seq;
        inflight.state = OpState::Waiting;
        inflight.wrong_path = fe.wrong_path;
        inflight.mispredicted = fe.mispredicted;
        inflight.in_lsq = false;
        inflight.outstanding = 0;
        inflight.has_forward_store = false;
        inflight.dependents.clear();

        // Rename: chain each source to its youngest in-flight producer.
        for (std::uint8_t s = 0; s < inflight.op.num_srcs; ++s) {
            const RegId reg = inflight.op.srcs[s];
            if (reg >= kNumArchRegs)
                continue;
            const std::uint64_t producer_seq = last_writer_[reg];
            if (producer_seq == 0)
                continue;
            InflightOp *producer = findOp(producer_seq);
            if (!producer || producer->state == OpState::Complete)
                continue;
            producer->dependents.push_back(inflight.seq);
            ++inflight.outstanding;
        }

        if (mem_op) {
            inflight.in_lsq = true;
            ++lsq_occupancy_;
            ++activity_.lsq_accesses; // LSQ insert

            if (inflight.op.op == OpClass::Load) {
                // Oracle disambiguation: find the youngest older store to
                // the same 8-byte word still in flight.
                const Addr word = inflight.op.mem_addr & ~Addr{7};
                store_slots_.scanDown(slot, [&](std::uint64_t older_slot) {
                    InflightOp &older = window_[older_slot];
                    if ((older.op.mem_addr & ~Addr{7}) != word)
                        return true;
                    inflight.has_forward_store = true;
                    if (older.state != OpState::Complete) {
                        older.dependents.push_back(inflight.seq);
                        ++inflight.outstanding;
                    }
                    return false;
                });
            } else {
                store_slots_.set(slot);
            }
        }

        if (inflight.op.hasDest())
            last_writer_[inflight.op.dest] = inflight.seq;
        if (inflight.op.is_conditional)
            ++unresolved_branches_;

        ++activity_.dispatched_ops;
        ++activity_.decoded_ops;

        ++window_count_;
        if (inflight.outstanding == 0)
            markReady(inflight);
    }
}

// --------------------------------------------------------------------- issue

std::uint32_t
Core::executionLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        return cfg_.lat_int_alu;
      case OpClass::IntMult: return cfg_.lat_int_mult;
      case OpClass::IntDiv: return cfg_.lat_int_div;
      case OpClass::FpAlu: return cfg_.lat_fp_alu;
      case OpClass::FpMult: return cfg_.lat_fp_mult;
      case OpClass::FpDiv: return cfg_.lat_fp_div;
      default: return 1;
    }
}

void
Core::issueStage()
{
    std::uint32_t int_slots = cfg_.int_issue_width;
    std::uint32_t fp_slots = cfg_.fp_issue_width;
    std::uint32_t mem_ports = cfg_.num_mem_ports;
    std::uint32_t int_alu_units = cfg_.num_int_alu;
    std::uint32_t int_mult_units = cfg_.num_int_mult;
    std::uint32_t fp_alu_units = cfg_.num_fp_alu;
    std::uint32_t fp_mult_units = cfg_.num_fp_mult;

    ready_slots_.scanUp(window_head_, [&](std::uint64_t slot) {
        if (int_slots == 0 && fp_slots == 0)
            return false;
        InflightOp &op = window_[slot];
        const OpClass cls = op.op.op;
        bool can_issue = false;
        std::uint32_t latency = executionLatency(cls);

        switch (cls) {
          case OpClass::Load:
          case OpClass::Store:
            if (int_slots > 0 && mem_ports > 0) {
                can_issue = true;
                --int_slots;
                --mem_ports;
                ++activity_.issued_mem;
                ++activity_.lsq_accesses; // associative search
                if (cls == OpClass::Load) {
                    if (op.has_forward_store) {
                        latency = 1; // store-to-load forwarding
                    } else {
                        latency = memory_.dataAccess(op.op.mem_addr,
                                                     false);
                    }
                } else {
                    latency = 1; // store resolves; writes at commit
                }
            }
            break;
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Nop:
            if (int_slots > 0 && int_alu_units > 0) {
                can_issue = true;
                --int_slots;
                --int_alu_units;
                ++activity_.int_alu_ops;
            }
            break;
          case OpClass::IntMult:
            if (int_slots > 0 && int_mult_units > 0
                && now_ >= int_div_busy_until_) {
                can_issue = true;
                --int_slots;
                --int_mult_units;
                ++activity_.int_mult_ops;
            }
            break;
          case OpClass::IntDiv:
            if (int_slots > 0 && int_mult_units > 0
                && now_ >= int_div_busy_until_) {
                can_issue = true;
                --int_slots;
                --int_mult_units;
                ++activity_.int_mult_ops;
                int_div_busy_until_ = now_ + latency; // unpipelined
            }
            break;
          case OpClass::FpAlu:
            if (fp_slots > 0 && fp_alu_units > 0) {
                can_issue = true;
                --fp_slots;
                --fp_alu_units;
                ++activity_.fp_alu_ops;
            }
            break;
          case OpClass::FpMult:
            if (fp_slots > 0 && fp_mult_units > 0
                && now_ >= fp_div_busy_until_) {
                can_issue = true;
                --fp_slots;
                --fp_mult_units;
                ++activity_.fp_mult_ops;
            }
            break;
          case OpClass::FpDiv:
            if (fp_slots > 0 && fp_mult_units > 0
                && now_ >= fp_div_busy_until_) {
                can_issue = true;
                --fp_slots;
                --fp_mult_units;
                ++activity_.fp_mult_ops;
                fp_div_busy_until_ = now_ + latency; // unpipelined
            }
            break;
          default:
            break;
        }

        if (!can_issue)
            return true;

        op.state = OpState::Issued;
        ready_slots_.clear(slot);
        activity_.regfile_reads += op.op.num_srcs;
        if (isFpOp(cls))
            ++activity_.issued_fp;
        else if (!isMemOp(cls))
            ++activity_.issued_int;
        scheduleCompletion(op.seq, now_ + latency);
        return true;
    });
}

// ------------------------------------------------------------------ complete

void
Core::scheduleCompletion(std::uint64_t seq, std::uint64_t at_cycle)
{
    if (at_cycle <= now_)
        at_cycle = now_ + 1;
    if (at_cycle - now_ >= kCalendarSlots)
        panic("completion latency exceeds calendar span");
    calendar_[at_cycle % kCalendarSlots].push_back(seq);
}

void
Core::completeStage()
{
    auto &slot = calendar_[now_ % kCalendarSlots];
    if (slot.empty())
        return;
    // The swap hands the slot the previous cycle's emptied buffer.
    completing_.clear();
    completing_.swap(slot);

    for (std::uint64_t seq : completing_) {
        InflightOp *op = findOp(seq);
        if (!op || op->state != OpState::Issued)
            continue; // squashed since issue

        op->state = OpState::Complete;
        ++activity_.wakeup_broadcasts;
        if (op->op.hasDest())
            ++activity_.regfile_writes;
        if (op->op.is_conditional && unresolved_branches_ > 0)
            --unresolved_branches_;
        wakeDependents(*op);

        if (op->op.is_branch && op->mispredicted && !op->wrong_path) {
            // Branch resolution: repair predictor state, squash younger
            // ops, and redirect fetch down the correct path.
            ++stats_.squashes;
            bpred_.repairAfterMispredict(op->op, op->pred);
            const Addr resume_pc = op->op.actualNextPc();
            squashYoungerThan(seq);
            on_wrong_path_ = false;
            fetch_pc_ = resume_pc;
            if (fetch_stall_until_ < now_ + 1)
                fetch_stall_until_ = now_ + 1;
        }
    }
}

void
Core::wakeDependents(InflightOp &producer)
{
    for (std::uint64_t dep_seq : producer.dependents) {
        InflightOp *dep = findOp(dep_seq);
        if (!dep || dep->state != OpState::Waiting)
            continue;
        if (dep->outstanding == 0)
            panic("dependent with no outstanding operands");
        if (--dep->outstanding == 0)
            markReady(*dep);
    }
    producer.dependents.clear();
}

void
Core::markReady(InflightOp &op)
{
    op.state = OpState::Ready;
    ready_slots_.set(op.seq & window_mask_);
}

// -------------------------------------------------------------------- commit

void
Core::commitStage()
{
    for (std::uint32_t n = 0; n < cfg_.commit_width; ++n) {
        if (window_count_ == 0)
            break;
        InflightOp &head = windowAt(0);
        if (head.state != OpState::Complete)
            break;

        if (head.wrong_path)
            panic("wrong-path op reached commit");

        if (head.op.op == OpClass::Store) {
            // Stores update the D-cache at retirement (write buffer
            // hides the latency from the commit pipeline).
            memory_.dataAccess(head.op.mem_addr, true);
            ++activity_.lsq_accesses;
            store_slots_.clear(window_head_);
        }
        if (head.op.is_branch) {
            bpred_.resolve(head.op, head.pred);
            ++activity_.bpred_updates;
        }
        if (head.op.hasDest()
            && last_writer_[head.op.dest] == head.seq) {
            last_writer_[head.op.dest] = 0;
        }
        if (head.in_lsq)
            --lsq_occupancy_;

        ++stats_.committed;
        ++activity_.committed_ops;
        window_head_ = (window_head_ + 1) & window_mask_;
        --window_count_;
    }
}

// -------------------------------------------------------------------- squash

void
Core::squashYoungerThan(std::uint64_t seq)
{
    while (window_count_ > 0 && windowAt(window_count_ - 1).seq > seq) {
        const InflightOp &squashed = windowAt(window_count_ - 1);
        if (squashed.in_lsq)
            --lsq_occupancy_;
        ready_slots_.clear(squashed.seq & window_mask_);
        store_slots_.clear(squashed.seq & window_mask_);
        --window_count_;
    }
    // Keep the live window contiguous in slot space: the next seq must
    // map to the slot after the surviving tail.
    const std::uint64_t tail_slot =
        (window_head_ + window_count_) & window_mask_;
    next_seq_ += (tail_slot - next_seq_) & window_mask_;
    frontend_count_ = 0;

    // Rebuild the rename map and the unresolved-branch count from the
    // surviving window contents.
    last_writer_.fill(0);
    unresolved_branches_ = 0;
    for (std::size_t i = 0; i < window_count_; ++i) {
        const InflightOp &op = windowAt(i);
        if (op.op.hasDest())
            last_writer_[op.op.dest] = op.seq;
        if (op.op.is_conditional && op.state != OpState::Complete)
            ++unresolved_branches_;
    }
}

Core::InflightOp *
Core::findOp(std::uint64_t seq)
{
    // Live means inside the window's slot range AND carrying this seq:
    // a squashed or retired op may still sit in its old slot.
    InflightOp &op = window_[seq & window_mask_];
    if (((seq - window_head_) & window_mask_) >= window_count_
        || op.seq != seq)
        return nullptr;
    return &op;
}

} // namespace thermctl

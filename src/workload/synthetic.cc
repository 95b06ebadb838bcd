#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace thermctl
{

namespace
{

/** Base virtual addresses for the synthetic address-space layout. */
constexpr Addr kCodeBase = 0x0040'0000;
constexpr Addr kHotBase = 0x1000'0000;
constexpr Addr kWarmBase = 0x2000'0000;
constexpr Addr kColdBase = 0x4000'0000;

/** Non-branch op classes, in the order used by the weight vector. */
constexpr OpClass kBodyClasses[] = {
    OpClass::IntAlu, OpClass::IntMult, OpClass::IntDiv,
    OpClass::FpAlu, OpClass::FpMult, OpClass::FpDiv,
    OpClass::Load, OpClass::Store,
};

} // namespace

double
InstructionMix::total() const
{
    return int_alu + int_mult + int_div + fp_alu + fp_mult + fp_div
        + load + store + branch;
}

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile)
    : profile_(std::move(profile)),
      rng_(Rng(profile_.seed).fork(0xc0ffee)),
      wrong_rng_(Rng(profile_.seed).fork(0xbad'bad)),
      recent_int_(kDestRing, kNoReg),
      recent_fp_(kDestRing, kNoReg)
{
    if (profile_.num_blocks == 0)
        fatal("WorkloadProfile '", profile_.name, "': num_blocks must be > 0");
    if (profile_.mean_block_len < 2.0)
        fatal("WorkloadProfile '", profile_.name,
              "': mean_block_len must be >= 2");
    if (profile_.dep_p <= 0.0 || profile_.dep_p > 1.0)
        fatal("WorkloadProfile '", profile_.name,
              "': dep_p must be in (0, 1]");
    if (profile_.hot_bytes < 64 || profile_.warm_bytes < 64
        || profile_.cold_bytes < 64) {
        fatal("WorkloadProfile '", profile_.name,
              "': region footprints must be at least one cache block");
    }
    buildProgram();
    if (profile_.phases.empty()) {
        phase_params_.push_back(phaseParams(nullptr));
    } else {
        for (const WorkloadPhase &phase : profile_.phases)
            phase_params_.push_back(phaseParams(&phase));
        phase_insts_left_ = profile_.phases.front().length_insts;
    }
}

void
SyntheticWorkload::buildProgram()
{
    // ------------------------------------------------------------ functions
    const std::uint32_t num_funcs = 8;
    functions_.resize(num_funcs);

    // ------------------------------------------------------------ blocks
    blocks_.resize(profile_.num_blocks);
    const double branch_kind_weights_total =
        profile_.frac_loop_branches + profile_.frac_biased_branches
        + profile_.frac_patterned_branches + profile_.frac_random_branches;
    if (branch_kind_weights_total <= 0.0)
        fatal("WorkloadProfile '", profile_.name,
              "': branch-kind fractions must not all be zero");
    std::vector<double> kind_weights = {
        profile_.frac_loop_branches,
        profile_.frac_biased_branches,
        profile_.frac_patterned_branches,
        profile_.frac_random_branches,
    };

    Addr pc = kCodeBase;
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        Block &blk = blocks_[i];
        blk.base_pc = pc;
        // Block length: 2..(2*mean - 2), clamped into [2, 16].
        const double spread = std::max(1.0, profile_.mean_block_len - 2.0);
        auto len = static_cast<std::int64_t>(
            std::lround(profile_.mean_block_len
                        + rng_.uniform(-spread, spread)));
        blk.len = static_cast<std::uint8_t>(std::clamp<std::int64_t>(
            len, 2, 16));
        pc += static_cast<Addr>(blk.len) * 4;

        blk.ends_in_call = rng_.chance(profile_.call_prob);
        if (blk.ends_in_call) {
            blk.callee = static_cast<std::uint32_t>(rng_.below(num_funcs));
            continue;
        }

        StaticBranch &br = blk.branch;
        switch (rng_.weighted(kind_weights)) {
          case 0:
            br.kind = BranchKind::LoopBack;
            br.trip_count = 2 + static_cast<std::uint32_t>(
                rng_.geometric(1.0 / std::max(2.0,
                                              profile_.mean_trip_count)));
            // Tight backward loop over the last few blocks.
            br.taken_block = i >= 1
                ? i - 1 - static_cast<std::uint32_t>(
                      rng_.below(std::min<std::uint64_t>(3, i)))
                : 0;
            break;
          case 1:
            br.kind = BranchKind::Biased;
            br.taken_prob = rng_.chance(0.5) ? 0.92 : 0.08;
            br.taken_block =
                (i + 2 + static_cast<std::uint32_t>(rng_.below(4)))
                % static_cast<std::uint32_t>(blocks_.size());
            break;
          case 2:
            br.kind = BranchKind::Patterned;
            br.pattern_len = static_cast<std::uint8_t>(3 + rng_.below(6));
            br.pattern = static_cast<std::uint32_t>(
                rng_.below(1u << br.pattern_len));
            br.taken_block =
                (i + 2 + static_cast<std::uint32_t>(rng_.below(4)))
                % static_cast<std::uint32_t>(blocks_.size());
            break;
          default:
            br.kind = BranchKind::Random;
            br.taken_prob = 0.5;
            br.taken_block =
                (i + 2 + static_cast<std::uint32_t>(rng_.below(4)))
                % static_cast<std::uint32_t>(blocks_.size());
            break;
        }
    }

    // The last block must transfer control back to block 0 explicitly:
    // a fall-through off the end of the code region would break PC
    // continuity for the fetch engine.
    Block &last = blocks_.back();
    last.ends_in_call = false;
    last.branch = StaticBranch{};
    last.branch.kind = BranchKind::Biased;
    last.branch.taken_prob = 1.0;
    last.branch.taken_block = 0;

    // Function bodies follow the main code region.
    for (auto &fn : functions_) {
        fn.base_pc = pc;
        fn.len = static_cast<std::uint8_t>(3 + rng_.below(6));
        pc += static_cast<Addr>(fn.len) * 4;
    }
}

SyntheticWorkload::EffectiveParams
SyntheticWorkload::phaseParams(const WorkloadPhase *phase) const
{
    const double fp_scale = phase ? phase->fp_scale : 1.0;
    const double mem_scale = phase ? phase->mem_scale : 1.0;

    EffectiveParams eff;
    eff.op_weights = {
        profile_.mix.int_alu,
        profile_.mix.int_mult,
        profile_.mix.int_div,
        profile_.mix.fp_alu * fp_scale,
        profile_.mix.fp_mult * fp_scale,
        profile_.mix.fp_div * fp_scale,
        profile_.mix.load * mem_scale,
        profile_.mix.store * mem_scale,
    };
    bool any = false;
    for (double w : eff.op_weights) {
        if (w < 0.0)
            fatal("WorkloadProfile '", profile_.name,
                  "': instruction mix weights must be non-negative");
        any = any || w > 0.0;
    }
    if (!any)
        fatal("WorkloadProfile '", profile_.name,
              "': instruction mix has no non-branch weight");
    eff.op_total = Rng::weightTotal(eff.op_weights);

    eff.cold_frac = profile_.cold_frac;
    eff.warm_frac = profile_.warm_frac;
    eff.dep_p = profile_.dep_p;
    if (phase) {
        if (phase->cold_frac_override >= 0.0)
            eff.cold_frac = phase->cold_frac_override;
        if (phase->dep_p_override > 1.0)
            fatal("WorkloadProfile '", profile_.name,
                  "': a phase's dep_p_override must be in (0, 1]");
        if (phase->dep_p_override > 0.0)
            eff.dep_p = phase->dep_p_override;
    }
    eff.dep_log_q = std::log(1.0 - eff.dep_p);
    return eff;
}

void
SyntheticWorkload::advancePhaseAccounting()
{
    if (profile_.phases.empty())
        return;
    if (phase_insts_left_ > 0)
        --phase_insts_left_;
    if (phase_insts_left_ == 0) {
        phase_index_ = (phase_index_ + 1) % profile_.phases.size();
        phase_insts_left_ = profile_.phases[phase_index_].length_insts;
    }
}

OpClass
SyntheticWorkload::sampleOpClass()
{
    const EffectiveParams &e = eff();
    return kBodyClasses[rng_.weighted(e.op_weights, e.op_total)];
}

void
SyntheticWorkload::pushDest(RegId reg, bool fp)
{
    if (fp) {
        recent_fp_[fp_head_] = reg;
        fp_head_ = (fp_head_ + 1) % kDestRing;
    } else {
        recent_int_[int_head_] = reg;
        int_head_ = (int_head_ + 1) % kDestRing;
    }
}

RegId
SyntheticWorkload::pickSrc(bool fp)
{
    const auto &ring = fp ? recent_fp_ : recent_int_;
    const std::size_t head = fp ? fp_head_ : int_head_;
    std::uint64_t dist = 1 + rng_.geometric(eff().dep_p, eff().dep_log_q);
    dist = std::min<std::uint64_t>(dist, kDestRing - 1);
    RegId reg = ring[(head + kDestRing - dist) % kDestRing];
    if (reg == kNoReg) {
        // Stream warm-up: fall back to a fixed live-in register.
        reg = fp ? static_cast<RegId>(kFirstFpReg + 1) : RegId{1};
    }
    return reg;
}

RegId
SyntheticWorkload::allocDest(bool fp)
{
    if (fp) {
        RegId reg = static_cast<RegId>(kFirstFpReg + next_fp_dest_);
        next_fp_dest_ = next_fp_dest_ >= 30 ? RegId{2}
                                            : static_cast<RegId>(
                                                  next_fp_dest_ + 1);
        return reg;
    }
    RegId reg = next_int_dest_;
    next_int_dest_ = next_int_dest_ >= 30 ? RegId{2}
                                          : static_cast<RegId>(
                                                next_int_dest_ + 1);
    return reg;
}

Addr
SyntheticWorkload::genMemAddr()
{
    const EffectiveParams &e = eff();
    const double r = rng_.uniform();
    Addr base;
    std::uint64_t size;
    Addr *stride_pos;
    if (r < e.cold_frac) {
        base = kColdBase;
        size = profile_.cold_bytes;
        stride_pos = &cold_stride_pos_;
    } else if (r < e.cold_frac + e.warm_frac) {
        base = kWarmBase;
        size = profile_.warm_bytes;
        stride_pos = &warm_stride_pos_;
    } else {
        base = kHotBase;
        size = profile_.hot_bytes;
        stride_pos = &hot_stride_pos_;
    }

    Addr offset;
    if (rng_.chance(profile_.stride_frac)) {
        *stride_pos = (*stride_pos + 8) % size;
        offset = *stride_pos;
    } else {
        offset = rng_.below(size) & ~Addr{7};
    }
    return base + offset;
}

MicroOp
SyntheticWorkload::makeBodyOp(Addr pc)
{
    MicroOp op;
    op.pc = pc;
    op.op = sampleOpClass();
    const bool fp = isFpOp(op.op);

    switch (op.op) {
      case OpClass::Load: {
        op.srcs[0] = pickSrc(false);
        op.num_srcs = 1;
        // FP-heavy codes load FP data; integer codes mostly load pointers.
        const double fp_load_prob =
            (profile_.mix.fp_alu + profile_.mix.fp_mult) > 0.1 ? 0.3 : 0.05;
        op.dest = allocDest(rng_.chance(fp_load_prob));
        op.mem_addr = genMemAddr();
        pushDest(op.dest, op.dest >= kFirstFpReg);
        break;
      }
      case OpClass::Store:
        op.srcs[0] = pickSrc(false);       // address
        op.srcs[1] = pickSrc(fp);          // data
        op.num_srcs = 2;
        op.mem_addr = genMemAddr();
        break;
      default:
        op.srcs[0] = pickSrc(fp);
        op.num_srcs = 1;
        if (rng_.chance(profile_.second_src_prob)) {
            op.srcs[1] = pickSrc(fp);
            op.num_srcs = 2;
        }
        op.dest = allocDest(fp);
        pushDest(op.dest, fp);
        break;
    }
    return op;
}

MicroOp
SyntheticWorkload::makeTerminator()
{
    MicroOp op;
    op.op = OpClass::Branch;
    op.is_branch = true;

    if (in_function_) {
        // Function bodies end in a return to the caller's fall-through.
        const Function &fn = functions_[cur_func_];
        op.pc = fn.base_pc + static_cast<Addr>(fn.len - 1) * 4;
        op.is_return = true;
        op.taken = true;
        std::uint32_t resume = call_stack_.empty() ? 0 : call_stack_.back();
        if (!call_stack_.empty())
            call_stack_.pop_back();
        op.target = blocks_[resume].base_pc;
        in_function_ = false;
        cur_block_ = resume;
        cur_off_ = 0;
        return op;
    }

    Block &blk = blocks_[cur_block_];
    op.pc = blk.base_pc + static_cast<Addr>(blk.len - 1) * 4;

    if (blk.ends_in_call) {
        op.is_call = true;
        op.taken = true;
        op.target = functions_[blk.callee].base_pc;
        const std::uint32_t resume =
            (cur_block_ + 1) % static_cast<std::uint32_t>(blocks_.size());
        if (call_stack_.size() < 32)
            call_stack_.push_back(resume);
        in_function_ = true;
        cur_func_ = blk.callee;
        cur_off_ = 0;
        return op;
    }

    StaticBranch &br = blk.branch;
    op.is_conditional = true;
    op.srcs[0] = pickSrc(false);
    op.num_srcs = 1;

    bool taken = false;
    switch (br.kind) {
      case BranchKind::LoopBack:
        ++br.counter;
        taken = br.counter < br.trip_count;
        if (!taken)
            br.counter = 0;
        break;
      case BranchKind::Biased:
        taken = rng_.chance(br.taken_prob);
        break;
      case BranchKind::Patterned:
        taken = (br.pattern >> (br.counter % br.pattern_len)) & 1u;
        ++br.counter;
        break;
      case BranchKind::Random: {
        double p = br.taken_prob;
        if (!profile_.phases.empty()) {
            double ov = profile_.phases[phase_index_].random_branch_override;
            if (ov >= 0.0)
                p = ov;
        }
        taken = rng_.chance(p);
        break;
      }
    }

    op.taken = taken;
    op.target = blocks_[br.taken_block].base_pc;

    const std::uint32_t fallthrough =
        (cur_block_ + 1) % static_cast<std::uint32_t>(blocks_.size());
    cur_block_ = taken ? br.taken_block : fallthrough;
    cur_off_ = 0;
    return op;
}

MicroOp
SyntheticWorkload::next()
{
    MicroOp op;
    if (in_function_) {
        const Function &fn = functions_[cur_func_];
        if (cur_off_ + 1 >= fn.len) {
            op = makeTerminator();
        } else {
            op = makeBodyOp(fn.base_pc + static_cast<Addr>(cur_off_) * 4);
            ++cur_off_;
        }
    } else {
        const Block &blk = blocks_[cur_block_];
        if (cur_off_ + 1 >= blk.len) {
            op = makeTerminator();
        } else {
            op = makeBodyOp(blk.base_pc + static_cast<Addr>(cur_off_) * 4);
            ++cur_off_;
        }
    }
    advancePhaseAccounting();
    return op;
}

MicroOp
SyntheticWorkload::synthesizeAt(Addr pc)
{
    // Wrong-path ops: plausible mix, warm-region addresses, no control
    // transfers (a wrong-path branch would immediately redirect fetch again;
    // predictors treat unknown PCs as not-taken anyway).
    MicroOp op;
    op.pc = pc;
    op.op = kBodyClasses[wrong_rng_.weighted(eff().op_weights,
                                             eff().op_total)];
    const bool fp = isFpOp(op.op);
    // Wrong-path memory accesses mostly touch the same hot data the
    // correct path uses (the wrong path is nearby code), with occasional
    // warm-region pollution.
    auto wrong_addr = [&]() -> Addr {
        if (wrong_rng_.chance(0.15)) {
            return kWarmBase
                + (wrong_rng_.below(profile_.warm_bytes) & ~Addr{7});
        }
        return kHotBase
            + (wrong_rng_.below(profile_.hot_bytes) & ~Addr{7});
    };
    switch (op.op) {
      case OpClass::Load:
        op.srcs[0] = 1;
        op.num_srcs = 1;
        op.dest = 31;
        op.mem_addr = wrong_addr();
        break;
      case OpClass::Store:
        op.srcs[0] = 1;
        op.srcs[1] = 2;
        op.num_srcs = 2;
        op.mem_addr = wrong_addr();
        break;
      default:
        op.srcs[0] = fp ? static_cast<RegId>(kFirstFpReg + 1) : RegId{1};
        op.num_srcs = 1;
        op.dest = fp ? static_cast<RegId>(kFirstFpReg + 31) : RegId{31};
        break;
    }
    return op;
}

const char *
thermalCategoryName(ThermalCategory cat)
{
    switch (cat) {
      case ThermalCategory::Extreme: return "extreme";
      case ThermalCategory::High: return "high";
      case ThermalCategory::Medium: return "medium";
      case ThermalCategory::Low: return "low";
      default: return "?";
    }
}

} // namespace thermctl

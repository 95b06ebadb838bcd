/**
 * @file
 * Tests for the out-of-order core using small hand-built instruction
 * loops with known ILP characteristics.
 */

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "cpu/core.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic.hh"

namespace thermctl
{
namespace
{

/** A looping stream over a fixed body of micro-ops. */
class LoopStream : public InstructionStream
{
  public:
    explicit LoopStream(std::vector<MicroOp> body)
        : body_(std::move(body))
    {
        // Assign consecutive PCs and close the loop with the final op.
        Addr pc = 0x1000;
        for (auto &op : body_) {
            op.pc = pc;
            pc += 4;
        }
        MicroOp &last = body_.back();
        last.op = OpClass::Branch;
        last.is_branch = true;
        last.is_conditional = false;
        last.taken = true;
        last.target = body_.front().pc;
    }

    MicroOp
    next() override
    {
        MicroOp op = body_[pos_];
        pos_ = (pos_ + 1) % body_.size();
        ++served_;
        return op;
    }

    MicroOp
    synthesizeAt(Addr pc) override
    {
        MicroOp op;
        op.pc = pc;
        op.op = OpClass::IntAlu;
        op.dest = 31;
        return op;
    }

    std::uint64_t served() const { return served_; }

  private:
    std::vector<MicroOp> body_;
    std::size_t pos_ = 0;
    std::uint64_t served_ = 0;
};

MicroOp
alu(RegId dest = kNoReg, RegId src = kNoReg)
{
    MicroOp op;
    op.op = OpClass::IntAlu;
    op.dest = dest;
    if (src != kNoReg) {
        op.srcs[0] = src;
        op.num_srcs = 1;
    }
    return op;
}

std::vector<MicroOp>
independentBody(int n)
{
    std::vector<MicroOp> body;
    for (int i = 0; i < n; ++i)
        body.push_back(alu());
    body.push_back(alu()); // becomes the loop branch
    return body;
}

TEST(Core, IndependentOpsApproachCommitWidth)
{
    LoopStream stream(independentBody(63));
    MemoryHierarchy mem;
    Core core(CpuConfig{}, stream, mem);
    for (int i = 0; i < 50000; ++i)
        core.tick();
    // Commit width is 4; the loop branch costs a fetch-group break.
    EXPECT_GT(core.stats().ipc(), 3.0);
    EXPECT_LE(core.stats().ipc(), 4.0);
}

TEST(Core, DependentChainSerializes)
{
    // op[i] reads the register written by op[i-1].
    std::vector<MicroOp> body;
    for (int i = 0; i < 32; ++i) {
        const RegId dst = static_cast<RegId>(1 + (i % 2));
        const RegId src = static_cast<RegId>(1 + ((i + 1) % 2));
        body.push_back(alu(dst, src));
    }
    body.push_back(alu());
    LoopStream stream(std::move(body));
    MemoryHierarchy mem;
    Core core(CpuConfig{}, stream, mem);
    for (int i = 0; i < 50000; ++i)
        core.tick();
    EXPECT_GT(core.stats().ipc(), 0.8);
    EXPECT_LT(core.stats().ipc(), 1.3);
}

TEST(Core, UnpipelinedDivideThrottles)
{
    std::vector<MicroOp> body;
    for (int i = 0; i < 8; ++i) {
        MicroOp op = alu(static_cast<RegId>(1), static_cast<RegId>(1));
        op.op = OpClass::IntDiv;
        body.push_back(op);
    }
    body.push_back(alu());
    LoopStream stream(std::move(body));
    MemoryHierarchy mem;
    Core core(CpuConfig{}, stream, mem);
    for (int i = 0; i < 50000; ++i)
        core.tick();
    // A dependent chain of 20-cycle unpipelined divides: ~1/20 IPC.
    EXPECT_LT(core.stats().ipc(), 0.1);
    EXPECT_GT(core.stats().ipc(), 0.03);
}

TEST(Core, IndependentLoadsBeatDependentLoads)
{
    auto make_load = [](Addr addr, RegId dest, RegId addr_src) {
        MicroOp op;
        op.op = OpClass::Load;
        op.mem_addr = addr;
        op.dest = dest;
        if (addr_src != kNoReg) {
            op.srcs[0] = addr_src;
            op.num_srcs = 1;
        }
        return op;
    };

    std::vector<MicroOp> indep;
    for (int i = 0; i < 16; ++i)
        indep.push_back(make_load(0x2000 + 8 * i, kNoReg, kNoReg));
    indep.push_back(alu());

    std::vector<MicroOp> chained;
    for (int i = 0; i < 16; ++i) {
        chained.push_back(
            make_load(0x2000 + 8 * i, static_cast<RegId>(1),
                      static_cast<RegId>(1)));
    }
    chained.push_back(alu());

    auto run_ipc = [](std::vector<MicroOp> body) {
        LoopStream stream(std::move(body));
        MemoryHierarchy mem;
        Core core(CpuConfig{}, stream, mem);
        for (int i = 0; i < 30000; ++i)
            core.tick();
        return core.stats().ipc();
    };

    const double ipc_indep = run_ipc(std::move(indep));
    const double ipc_chained = run_ipc(std::move(chained));
    EXPECT_GT(ipc_indep, 1.5 * ipc_chained);
}

TEST(Core, FetchGatingStopsAndResumesProgress)
{
    LoopStream stream(independentBody(31));
    MemoryHierarchy mem;
    Core core(CpuConfig{}, stream, mem);
    for (int i = 0; i < 10000; ++i)
        core.tick();
    const auto committed_before = core.stats().committed;
    EXPECT_GT(committed_before, 0u);

    core.setFetchEnabled(false);
    for (int i = 0; i < 1000; ++i)
        core.tick();
    const auto committed_gated = core.stats().committed;
    // The pipeline drains: far fewer than 1000 cycles of commits.
    EXPECT_LT(committed_gated - committed_before, 200u);
    EXPECT_EQ(core.stats().fetch_gated_cycles, 1000u);

    core.setFetchEnabled(true);
    for (int i = 0; i < 2000; ++i)
        core.tick();
    EXPECT_GT(core.stats().committed, committed_gated + 1000u);
}

/**
 * A loop whose terminating conditional branch follows an LCG direction
 * pattern the predictor cannot learn: taken repeats the loop body,
 * not-taken runs a short trailer that jumps back unconditionally.
 * PC continuity holds on both paths, as the fetch engine requires.
 */
class RandomBranchStream : public InstructionStream
{
  public:
    MicroOp
    next() override
    {
        MicroOp op;
        switch (pos_) {
          case 0: case 1: case 2: case 3: case 4:
            op.pc = 0x1000 + 4 * pos_;
            op.op = OpClass::IntAlu;
            ++pos_;
            return op;
          case 5: { // conditional branch at 0x1014, taken -> 0x1000
            op.pc = 0x1014;
            op.op = OpClass::Branch;
            op.is_branch = true;
            op.is_conditional = true;
            op.target = 0x1000;
            state_ = state_ * 6364136223846793005ULL
                + 1442695040888963407ULL;
            op.taken = (state_ >> 62) & 1;
            pos_ = op.taken ? 0 : 6;
            return op;
          }
          case 6: // trailer op at 0x1018
            op.pc = 0x1018;
            op.op = OpClass::IntAlu;
            pos_ = 7;
            return op;
          default: // unconditional jump at 0x101c back to 0x1000
            op.pc = 0x101c;
            op.op = OpClass::Branch;
            op.is_branch = true;
            op.taken = true;
            op.target = 0x1000;
            pos_ = 0;
            return op;
        }
    }

    MicroOp
    synthesizeAt(Addr pc) override
    {
        MicroOp op;
        op.pc = pc;
        op.op = OpClass::IntAlu;
        return op;
    }

  private:
    int pos_ = 0;
    std::uint64_t state_ = 7;
};

TEST(Core, MispredictsSquashWrongPathAndRecover)
{
    RandomBranchStream stream;
    MemoryHierarchy mem;
    Core core(CpuConfig{}, stream, mem);
    for (int i = 0; i < 30000; ++i)
        core.tick();
    // Roughly half the branch executions mispredict.
    EXPECT_GT(core.stats().squashes, 200u);
    EXPECT_GT(core.stats().wrong_path_ops, 500u);
    EXPECT_GT(core.stats().committed, 1000u);
    // Mispredictions cost cycles: IPC well below the 4-wide peak.
    EXPECT_LT(core.stats().ipc(), 3.0);
    const auto &bp = core.predictor().stats();
    EXPECT_GT(bp.dir_wrong, 200u);
}

TEST(Core, StoreLoadForwardingCompletes)
{
    std::vector<MicroOp> body;
    for (int i = 0; i < 8; ++i) {
        MicroOp st;
        st.op = OpClass::Store;
        st.mem_addr = 0x3000 + 8 * i;
        st.srcs[0] = 1;
        st.srcs[1] = 2;
        st.num_srcs = 2;
        body.push_back(st);

        MicroOp ld;
        ld.op = OpClass::Load;
        ld.mem_addr = 0x3000 + 8 * i;
        ld.dest = static_cast<RegId>(3 + (i % 4));
        body.push_back(ld);
    }
    body.push_back(alu());
    LoopStream stream(std::move(body));
    MemoryHierarchy mem;
    Core core(CpuConfig{}, stream, mem);
    for (int i = 0; i < 30000; ++i)
        core.tick();
    // Forwarded loads never touch the D-cache; with 16 of 17 body ops
    // being memory ops the pair pattern must still flow at a healthy
    // rate through 2 memory ports.
    EXPECT_GT(core.stats().ipc(), 1.0);
}

TEST(Core, OccupancyBoundsRespected)
{
    LoopStream stream(independentBody(63));
    MemoryHierarchy mem;
    CpuConfig cfg;
    Core core(cfg, stream, mem);
    for (int i = 0; i < 20000; ++i) {
        core.tick();
        ASSERT_LE(core.windowOccupancy(), cfg.window_size);
        ASSERT_LE(core.lsqOccupancy(), cfg.lsq_size);
    }
}

TEST(Core, DeterministicAcrossInstances)
{
    auto run = [] {
        LoopStream stream(independentBody(31));
        MemoryHierarchy mem;
        Core core(CpuConfig{}, stream, mem);
        for (int i = 0; i < 20000; ++i)
            core.tick();
        return core.stats().committed;
    };
    EXPECT_EQ(run(), run());
}

TEST(Core, RejectsBadConfig)
{
    LoopStream stream(independentBody(7));
    MemoryHierarchy mem;
    CpuConfig cfg;
    cfg.fetch_width = 0;
    EXPECT_THROW(Core(cfg, stream, mem), FatalError);
    cfg = CpuConfig{};
    cfg.window_size = 0;
    EXPECT_THROW(Core(cfg, stream, mem), FatalError);
}

TEST(Core, ResetStatsClearsCounters)
{
    LoopStream stream(independentBody(15));
    MemoryHierarchy mem;
    Core core(CpuConfig{}, stream, mem);
    for (int i = 0; i < 1000; ++i)
        core.tick();
    EXPECT_GT(core.stats().cycles, 0u);
    core.resetStats();
    EXPECT_EQ(core.stats().cycles, 0u);
    EXPECT_EQ(core.stats().committed, 0u);
}

/**
 * Digest of a bare core's cycle-by-cycle trajectory over three SPEC
 * profiles at one window size: every cycle's activity counters and
 * window/LSQ occupancy, then the final statistics. Fetch is gated on a
 * fixed pattern (long drains plus fine-grained toggling), so squashes,
 * gating and full-window stalls all occur.
 */
std::string
windowTrajectoryDigest(std::uint32_t window_size)
{
    HashStream h;
    for (const char *name : {"176.gcc", "179.art", "186.crafty"}) {
        SyntheticWorkload wl(specProfile(name));
        MemoryHierarchy mem;
        CpuConfig cfg;
        cfg.window_size = window_size;
        cfg.lsq_size = std::max<std::uint32_t>(1, window_size / 2);
        Core core(cfg, wl, mem);
        std::size_t max_occupancy = 0;
        for (std::uint64_t c = 0; c < 20000; ++c) {
            core.setFetchEnabled(c % 1024 < 768
                                 && !((c / 4096) % 2 == 1 && c % 7 == 0));
            core.tick();
            const CpuActivity &a = core.activity();
            for (std::uint32_t v :
                 {a.icache_accesses, a.bpred_lookups, a.bpred_updates,
                  a.decoded_ops, a.dispatched_ops, a.issued_int,
                  a.issued_fp, a.issued_mem, a.wakeup_broadcasts,
                  a.regfile_reads, a.regfile_writes, a.lsq_accesses,
                  a.l1d_accesses, a.l1i_accesses, a.l2_accesses,
                  a.tlb_accesses, a.int_alu_ops, a.int_mult_ops,
                  a.fp_alu_ops, a.fp_mult_ops, a.committed_ops})
                h.u64(v);
            h.u64(core.windowOccupancy()).u64(core.lsqOccupancy());
            max_occupancy = std::max(max_occupancy, core.windowOccupancy());
        }
        const CpuStats &st = core.stats();
        h.u64(st.cycles).u64(st.committed).u64(st.fetched);
        h.u64(st.fetch_gated_cycles).u64(st.squashes).u64(st.wrong_path_ops);

        EXPECT_GT(st.squashes, 0u) << name << " window " << window_size;
        EXPECT_GT(st.fetch_gated_cycles, 0u);
        EXPECT_EQ(max_occupancy, window_size)
            << name << " never filled its window of " << window_size;
    }
    return hashHex(h.digest());
}

TEST(Core, WindowTrajectoryPinned)
{
    // Pinned from the deque-based window the ring replaced: every cycle
    // must stay bit-for-bit. Power-of-two sizes fill the ring exactly,
    // and 1 and 2 wrap on every op.
    const std::pair<std::uint32_t, const char *> pinned[] = {
        {1, "6fdfc2fbc611d546"},   {2, "a59334250b1846f8"},
        {7, "6a8717c28bd9dda3"},   {64, "6a9cd6ad34637bfb"},
        {80, "594f1ae8b9096546"},  {128, "53549d29eb5fc034"},
        {200, "f3a3e25a38d32e66"},
    };
    for (const auto &[window_size, digest] : pinned)
        EXPECT_EQ(windowTrajectoryDigest(window_size), digest)
            << "window_size " << window_size;
}

} // namespace
} // namespace thermctl

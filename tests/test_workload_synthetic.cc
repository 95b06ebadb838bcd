/**
 * @file
 * Tests for the synthetic workload generator: determinism, control-flow
 * integrity (the invariant the trace-driven fetch engine depends on),
 * instruction-mix fidelity, memory-region behaviour, and phases.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic.hh"

namespace thermctl
{
namespace
{

WorkloadProfile
simpleProfile()
{
    WorkloadProfile p;
    p.name = "test";
    p.seed = 99;
    return p;
}

TEST(SyntheticWorkload, DeterministicFromSeed)
{
    SyntheticWorkload a(simpleProfile());
    SyntheticWorkload b(simpleProfile());
    for (int i = 0; i < 5000; ++i) {
        MicroOp x = a.next();
        MicroOp y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.op, y.op);
        ASSERT_EQ(x.mem_addr, y.mem_addr);
        ASSERT_EQ(x.taken, y.taken);
    }
}

TEST(SyntheticWorkload, DifferentSeedsDiffer)
{
    auto p1 = simpleProfile();
    auto p2 = simpleProfile();
    p2.seed = 100;
    SyntheticWorkload a(p1), b(p2);
    int same = 0;
    for (int i = 0; i < 200; ++i)
        same += a.next().pc == b.next().pc;
    EXPECT_LT(same, 150);
}

/**
 * The invariant the trace-driven fetch engine relies on: each op's pc
 * equals the previous op's actualNextPc().
 */
class PcContinuity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PcContinuity, HoldsForManyInstructions)
{
    SyntheticWorkload wl(specProfile(GetParam()));
    MicroOp prev = wl.next();
    for (int i = 0; i < 100000; ++i) {
        MicroOp cur = wl.next();
        ASSERT_EQ(cur.pc, prev.actualNextPc())
            << "discontinuity after " << prev.toString() << " at op " << i;
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, PcContinuity,
                         ::testing::ValuesIn(specProfileNames()));

TEST(SyntheticWorkload, BranchesCarryTargets)
{
    SyntheticWorkload wl(simpleProfile());
    int taken_branches = 0;
    for (int i = 0; i < 20000; ++i) {
        MicroOp op = wl.next();
        if (op.is_branch && op.taken) {
            ++taken_branches;
            ASSERT_NE(op.target, 0u);
        }
    }
    EXPECT_GT(taken_branches, 100);
}

TEST(SyntheticWorkload, CallsAndReturnsPair)
{
    auto p = simpleProfile();
    p.call_prob = 0.2;
    SyntheticWorkload wl(p);
    int calls = 0, returns = 0;
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = wl.next();
        calls += op.is_call;
        returns += op.is_return;
    }
    EXPECT_GT(calls, 100);
    // Every call returns (modulo the one possibly in flight).
    EXPECT_NEAR(calls, returns, 2);
}

TEST(SyntheticWorkload, MemoryAddressesStayInRegions)
{
    auto p = simpleProfile();
    p.hot_bytes = 4096;
    p.warm_frac = 0.3;
    p.cold_frac = 0.1;
    SyntheticWorkload wl(p);
    int hot = 0, warm = 0, cold = 0, total = 0;
    for (int i = 0; i < 100000; ++i) {
        MicroOp op = wl.next();
        if (!isMemOp(op.op))
            continue;
        ++total;
        if (op.mem_addr >= 0x4000'0000)
            ++cold;
        else if (op.mem_addr >= 0x2000'0000)
            ++warm;
        else if (op.mem_addr >= 0x1000'0000) {
            ++hot;
            ASSERT_LT(op.mem_addr, 0x1000'0000 + p.hot_bytes);
        } else {
            FAIL() << "address outside any region";
        }
    }
    EXPECT_GT(total, 1000);
    EXPECT_NEAR(warm / double(total), 0.3, 0.03);
    EXPECT_NEAR(cold / double(total), 0.1, 0.02);
    EXPECT_NEAR(hot / double(total), 0.6, 0.04);
}

TEST(SyntheticWorkload, MixApproximatelyHonored)
{
    auto p = simpleProfile();
    p.mix = {.int_alu = 0.5, .int_mult = 0.0, .int_div = 0.0,
             .fp_alu = 0.2, .fp_mult = 0.0, .fp_div = 0.0,
             .load = 0.2, .store = 0.1, .branch = 0.0};
    p.mean_block_len = 10.0;
    SyntheticWorkload wl(p);
    std::map<OpClass, int> counts;
    int non_branch = 0;
    for (int i = 0; i < 100000; ++i) {
        MicroOp op = wl.next();
        if (op.is_branch)
            continue;
        ++non_branch;
        ++counts[op.op];
    }
    EXPECT_NEAR(counts[OpClass::IntAlu] / double(non_branch), 0.5, 0.03);
    EXPECT_NEAR(counts[OpClass::FpAlu] / double(non_branch), 0.2, 0.03);
    EXPECT_NEAR(counts[OpClass::Load] / double(non_branch), 0.2, 0.03);
    EXPECT_NEAR(counts[OpClass::Store] / double(non_branch), 0.1, 0.03);
}

TEST(SyntheticWorkload, BranchFrequencyTracksBlockLength)
{
    // Block lengths are sampled around the mean, so the branch rate is
    // E[1/len] (Jensen: somewhat above 1/mean). Check the plausible
    // band and the monotonic relationship between profiles.
    auto rate = [](double mean_len) {
        WorkloadProfile p;
        p.name = "test";
        p.seed = 99;
        p.mean_block_len = mean_len;
        SyntheticWorkload wl(p);
        int branches = 0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            branches += wl.next().is_branch;
        return branches / double(n);
    };
    const double short_blocks = rate(5.0);
    const double long_blocks = rate(12.0);
    EXPECT_GT(short_blocks, 0.15);
    EXPECT_LT(short_blocks, 0.35);
    EXPECT_GT(long_blocks, 0.06);
    EXPECT_LT(long_blocks, 0.16);
    EXPECT_GT(short_blocks, 1.5 * long_blocks);
}

TEST(SyntheticWorkload, PhasesCycle)
{
    auto p = simpleProfile();
    p.phases = {
        {.length_insts = 1000, .fp_scale = 1.0},
        {.length_insts = 2000, .fp_scale = 1.0},
    };
    SyntheticWorkload wl(p);
    EXPECT_EQ(wl.currentPhase(), 0u);
    for (int i = 0; i < 1000; ++i)
        wl.next();
    EXPECT_EQ(wl.currentPhase(), 1u);
    for (int i = 0; i < 2000; ++i)
        wl.next();
    EXPECT_EQ(wl.currentPhase(), 0u);
}

TEST(SyntheticWorkload, PhaseFpScaleShiftsMix)
{
    auto p = simpleProfile();
    p.mix.fp_alu = 0.2;
    p.phases = {
        {.length_insts = 50000, .fp_scale = 3.0},
        {.length_insts = 50000, .fp_scale = 0.1},
    };
    SyntheticWorkload wl(p);
    auto fp_fraction = [&](int n) {
        int fp = 0, total = 0;
        for (int i = 0; i < n; ++i) {
            MicroOp op = wl.next();
            if (op.is_branch)
                continue;
            ++total;
            fp += isFpOp(op.op);
        }
        return fp / double(total);
    };
    const double hot = fp_fraction(50000);
    const double cold = fp_fraction(50000);
    EXPECT_GT(hot, 2.0 * cold);
}

TEST(SyntheticWorkload, WrongPathOpsAreWellFormed)
{
    SyntheticWorkload wl(simpleProfile());
    for (int i = 0; i < 10000; ++i) {
        MicroOp op = wl.synthesizeAt(0x500000 + 4 * i);
        ASSERT_EQ(op.pc, 0x500000u + 4 * i);
        ASSERT_FALSE(op.is_branch);
        if (isMemOp(op.op)) {
            ASSERT_GE(op.mem_addr, 0x1000'0000u);
        }
    }
}

TEST(SyntheticWorkload, NeverDone)
{
    SyntheticWorkload wl(simpleProfile());
    EXPECT_FALSE(wl.done());
}

TEST(SyntheticWorkload, RejectsInvalidProfiles)
{
    auto p = simpleProfile();
    p.num_blocks = 0;
    EXPECT_THROW(SyntheticWorkload{p}, FatalError);

    p = simpleProfile();
    p.dep_p = 0.0;
    EXPECT_THROW(SyntheticWorkload{p}, FatalError);

    p = simpleProfile();
    p.mean_block_len = 1.0;
    EXPECT_THROW(SyntheticWorkload{p}, FatalError);

    p = simpleProfile();
    p.hot_bytes = 8;
    EXPECT_THROW(SyntheticWorkload{p}, FatalError);

    // Every phase is checked up front, not when the stream reaches it
    // (art's second phase starts 250k instructions in).
    p = specProfile("179.art");
    ASSERT_GE(p.phases.size(), 2u);
    p.phases[1].dep_p_override = 1.5;
    EXPECT_THROW(SyntheticWorkload{p}, FatalError);

    p = specProfile("179.art");
    p.phases[1].fp_scale = -1.0;
    EXPECT_THROW(SyntheticWorkload{p}, FatalError);
}

/** Fold every field of a micro-op into `h`. */
void
hashOp(HashStream &h, const MicroOp &op)
{
    h.u64(op.pc).u64(static_cast<std::uint64_t>(op.op)).u64(op.num_srcs);
    h.u64(op.srcs[0]).u64(op.srcs[1]).u64(op.dest);
    h.u64(op.mem_addr).u64(op.mem_size);
    h.b(op.is_branch).b(op.is_conditional).b(op.is_call);
    h.b(op.is_return).b(op.taken).u64(op.target);
}

/**
 * Digest of a profile's stream as the core consumes it: committed-path
 * ops with bursts of wrong-path ops synthesized after some of them.
 */
std::string
streamDigest(const WorkloadProfile &profile)
{
    HashStream h;
    SyntheticWorkload wl(profile);
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = wl.next();
        hashOp(h, op);
        if (i % 9 == 0) {
            for (Addr k = 1; k <= 3; ++k)
                hashOp(h, wl.synthesizeAt(op.pc + 4 * k));
        }
    }
    return hashHex(h.digest());
}

/** streamDigest() of every SPEC profile, folded into one digest. */
std::string
specStreamsDigest()
{
    HashStream h;
    for (const auto &profile : allSpecProfiles())
        h.str(streamDigest(profile));
    return hashHex(h.digest());
}

TEST(SyntheticWorkload, StreamPinned)
{
    // Every SPEC profile; none switches phase within 20 000 ops.
    EXPECT_EQ(specStreamsDigest(), "6ca8eed783235843");

    // Short phases that rescale the mix and override the dependence
    // parameter (p = 1 draws nothing) and the cold and random fractions.
    auto p = simpleProfile();
    p.mix.fp_alu = 0.1;
    p.mix.fp_mult = 0.05;
    p.mix.fp_div = 0.01;
    p.phases = {
        {.length_insts = 1000, .fp_scale = 2.5, .mem_scale = 0.5,
         .dep_p_override = 0.8},
        {.length_insts = 1000, .fp_scale = 0.2, .mem_scale = 1.7,
         .cold_frac_override = 0.2, .dep_p_override = 0.1},
        {.length_insts = 1000, .fp_scale = 0.0, .dep_p_override = 1.0,
         .random_branch_override = 0.9},
    };
    EXPECT_EQ(streamDigest(p), "07edcdf1fea8551e");
}

TEST(SpecProfiles, Exactly18InTable4Order)
{
    auto all = allSpecProfiles();
    ASSERT_EQ(all.size(), 18u);
    EXPECT_EQ(all.front().name, "164.gzip");
    EXPECT_EQ(all.back().name, "301.apsi");
    std::set<std::string> names;
    for (const auto &p : all)
        names.insert(p.name);
    EXPECT_EQ(names.size(), 18u);
}

TEST(SpecProfiles, LookupByShortName)
{
    EXPECT_EQ(specProfile("gcc").name, "176.gcc");
    EXPECT_EQ(specProfile("176.gcc").name, "176.gcc");
    EXPECT_THROW(specProfile("nonexistent"), FatalError);
}

TEST(SpecProfiles, CategoryCountsMatchPaperShape)
{
    int extreme = 0, high = 0, medium = 0, low = 0;
    for (const auto &p : allSpecProfiles()) {
        switch (p.category) {
          case ThermalCategory::Extreme: ++extreme; break;
          case ThermalCategory::High: ++high; break;
          case ThermalCategory::Medium: ++medium; break;
          case ThermalCategory::Low: ++low; break;
        }
    }
    // The paper reports eight benchmarks with actual emergencies.
    EXPECT_EQ(extreme, 8);
    EXPECT_GE(high, 4);
    EXPECT_GE(medium, 2);
    EXPECT_GE(low, 2);
}

} // namespace
} // namespace thermctl

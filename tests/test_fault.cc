/**
 * @file
 * Tests for the fault-injection module (fault/fault.hh): plan grammar,
 * deterministic per-site decision streams, the every/after/max gates,
 * and the disarmed fast path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "fault/fault.hh"

using namespace thermctl;
using namespace thermctl::fault;

namespace
{

/** Disarm on scope exit so tests never leak an armed plan. */
struct ScopedDisarm
{
    ~ScopedDisarm() { FaultInjector::instance().disarm(); }
};

/** Probe `site` `n` times, returning the decision kinds in order. */
std::vector<FaultKind>
probeSeq(std::string_view site, int n)
{
    std::vector<FaultKind> kinds;
    kinds.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        kinds.push_back(FaultInjector::instance().probe(site).kind);
    return kinds;
}

} // namespace

// ------------------------------------------------------------- grammar

TEST(FaultPlan, ParsesFullGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=42;serve.sock.write=short@0.25;"
        "sched.batch=stall@0.5:ms=50:every=3:after=2:max=7");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.rules.size(), 2u);

    EXPECT_EQ(plan.rules[0].site, "serve.sock.write");
    EXPECT_EQ(plan.rules[0].kind, FaultKind::ShortIo);
    EXPECT_EQ(plan.rules[0].probability, 0.25);
    EXPECT_EQ(plan.rules[0].every, 0u);

    EXPECT_EQ(plan.rules[1].site, "sched.batch");
    EXPECT_EQ(plan.rules[1].kind, FaultKind::Stall);
    EXPECT_EQ(plan.rules[1].probability, 0.5);
    EXPECT_EQ(plan.rules[1].stall_ms, 50u);
    EXPECT_EQ(plan.rules[1].every, 3u);
    EXPECT_EQ(plan.rules[1].after, 2u);
    EXPECT_EQ(plan.rules[1].max_fires, 7u);
}

TEST(FaultPlan, DefaultsAndEmptyClauses)
{
    // Empty clauses (leading/trailing/double semicolons) are ignored;
    // probability defaults to 1, seed defaults to 1.
    const FaultPlan plan = FaultPlan::parse(";cache.load=abort;;");
    EXPECT_EQ(plan.seed, 1u);
    ASSERT_EQ(plan.rules.size(), 1u);
    EXPECT_EQ(plan.rules[0].kind, FaultKind::Abort);
    EXPECT_EQ(plan.rules[0].probability, 1.0);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string error;
    // No rules at all.
    EXPECT_FALSE(FaultPlan::tryParse("", plan, error));
    EXPECT_FALSE(FaultPlan::tryParse("seed=9", plan, error));
    // Unknown kind.
    EXPECT_FALSE(FaultPlan::tryParse("a.b=explode", plan, error));
    EXPECT_NE(error.find("explode"), std::string::npos);
    // Probability out of range or garbage.
    EXPECT_FALSE(FaultPlan::tryParse("a.b=abort@1.5", plan, error));
    EXPECT_FALSE(FaultPlan::tryParse("a.b=abort@zebra", plan, error));
    // Bad option key / value.
    EXPECT_FALSE(FaultPlan::tryParse("a.b=stall:frequency=2", plan, error));
    EXPECT_FALSE(FaultPlan::tryParse("a.b=stall:ms=ten", plan, error));
    // Bad seed.
    EXPECT_FALSE(FaultPlan::tryParse("seed=x;a.b=abort", plan, error));
    // Missing site.
    EXPECT_FALSE(FaultPlan::tryParse("=abort", plan, error));

    EXPECT_THROW(FaultPlan::parse("a.b=explode"), FatalError);
}

TEST(FaultPlan, DescribeReparsesToSamePlan)
{
    const char *spec =
        "seed=7;serve.sock.read=eintr@0.125:every=2;"
        "cache.publish=torn:after=1:max=3;sched.batch=stall:ms=25;"
        "serve.accept=abort;serve.sock.write=short";
    const FaultPlan plan = FaultPlan::parse(spec);
    const FaultPlan again = FaultPlan::parse(plan.describe());
    EXPECT_EQ(again.seed, plan.seed);
    ASSERT_EQ(again.rules.size(), plan.rules.size());
    for (std::size_t i = 0; i < plan.rules.size(); ++i) {
        EXPECT_EQ(again.rules[i].site, plan.rules[i].site);
        EXPECT_EQ(again.rules[i].kind, plan.rules[i].kind);
        EXPECT_EQ(again.rules[i].probability, plan.rules[i].probability);
        EXPECT_EQ(again.rules[i].every, plan.rules[i].every);
        EXPECT_EQ(again.rules[i].after, plan.rules[i].after);
        EXPECT_EQ(again.rules[i].max_fires, plan.rules[i].max_fires);
        EXPECT_EQ(again.rules[i].stall_ms, plan.rules[i].stall_ms);
    }
}

TEST(FaultKindNames, CoverEveryKind)
{
    EXPECT_EQ(faultKindName(FaultKind::None), "none");
    EXPECT_EQ(faultKindName(FaultKind::Abort), "abort");
    EXPECT_EQ(faultKindName(FaultKind::ShortIo), "short");
    EXPECT_EQ(faultKindName(FaultKind::Eintr), "eintr");
    EXPECT_EQ(faultKindName(FaultKind::Stall), "stall");
    EXPECT_EQ(faultKindName(FaultKind::Torn), "torn");
    EXPECT_EQ(faultKindName(static_cast<FaultKind>(99)), "invalid");
}

// ------------------------------------------------------------ injector

TEST(FaultInjector, DisarmedProbesAreNoOps)
{
    ScopedDisarm guard;
    FaultInjector &inj = FaultInjector::instance();
    inj.disarm();
    EXPECT_FALSE(inj.armed());
    EXPECT_EQ(inj.probe("any.site").kind, FaultKind::None);
    EXPECT_EQ(inj.firedCount(), 0u);

    // The production macro routes through the same path.
    EXPECT_EQ(THERMCTL_FAULT_POINT("any.site").kind, FaultKind::None);
}

TEST(FaultInjector, SameSeedReplaysSameSequence)
{
    ScopedDisarm guard;
    const FaultPlan plan =
        FaultPlan::parse("seed=1234;x.read=abort@0.3;x.write=short@0.7");
    FaultInjector &inj = FaultInjector::instance();

    inj.arm(plan);
    const auto reads_a = probeSeq("x.read", 200);
    const auto writes_a = probeSeq("x.write", 200);

    inj.arm(plan); // re-arm resets every per-rule stream
    const auto reads_b = probeSeq("x.read", 200);
    const auto writes_b = probeSeq("x.write", 200);

    EXPECT_EQ(reads_a, reads_b);
    EXPECT_EQ(writes_a, writes_b);

    // A probabilistic rule must neither always fire nor never fire
    // over 200 draws at p=0.3 (chance of either is ~1e-31).
    std::size_t fired = 0;
    for (FaultKind k : reads_a)
        fired += (k != FaultKind::None);
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, reads_a.size());
}

TEST(FaultInjector, SequenceIsPerSiteNotGlobal)
{
    ScopedDisarm guard;
    const FaultPlan plan =
        FaultPlan::parse("seed=99;a.site=abort@0.5;b.site=abort@0.5");
    FaultInjector &inj = FaultInjector::instance();

    // Interleaving probes of an unrelated site must not perturb a
    // site's own decision stream (this is what makes multi-threaded
    // chaos runs replayable).
    inj.arm(plan);
    const auto solo = probeSeq("a.site", 64);

    inj.arm(plan);
    std::vector<FaultKind> interleaved;
    for (int i = 0; i < 64; ++i) {
        interleaved.push_back(inj.probe("a.site").kind);
        inj.probe("b.site");
        inj.probe("nonexistent.site");
    }
    EXPECT_EQ(solo, interleaved);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    ScopedDisarm guard;
    FaultInjector &inj = FaultInjector::instance();
    inj.arm(FaultPlan::parse("seed=1;x=abort@0.5"));
    const auto one = probeSeq("x", 128);
    inj.arm(FaultPlan::parse("seed=2;x=abort@0.5"));
    const auto two = probeSeq("x", 128);
    EXPECT_NE(one, two);
}

TEST(FaultInjector, EveryAfterMaxGates)
{
    ScopedDisarm guard;
    FaultInjector &inj = FaultInjector::instance();

    // every=3: fires on gate-passing hits 3, 6, 9, ...
    inj.arm(FaultPlan::parse("x=abort:every=3"));
    auto seq = probeSeq("x", 9);
    for (int i = 0; i < 9; ++i) {
        const bool expect_fire = (i + 1) % 3 == 0;
        EXPECT_EQ(seq[std::size_t(i)] == FaultKind::Abort, expect_fire)
            << "hit " << i + 1;
    }

    // after=4: first 4 hits pass through untouched.
    inj.arm(FaultPlan::parse("x=abort:after=4"));
    seq = probeSeq("x", 8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(seq[std::size_t(i)] == FaultKind::Abort, i >= 4)
            << "hit " << i + 1;
    }

    // max=2: exactly two fires, then the rule goes quiet.
    inj.arm(FaultPlan::parse("x=abort:max=2"));
    seq = probeSeq("x", 10);
    std::size_t fires = 0;
    for (FaultKind k : seq)
        fires += (k == FaultKind::Abort);
    EXPECT_EQ(fires, 2u);
    EXPECT_EQ(seq[0], FaultKind::Abort);
    EXPECT_EQ(seq[1], FaultKind::Abort);
    EXPECT_EQ(inj.firedCount(), 2u);
}

TEST(FaultInjector, StallCarriesDuration)
{
    ScopedDisarm guard;
    FaultInjector &inj = FaultInjector::instance();
    inj.arm(FaultPlan::parse("x=stall:ms=123"));
    const FaultDecision d = inj.probe("x");
    EXPECT_TRUE(d.stall());
    EXPECT_EQ(d.stall_ms, 123u);
}

TEST(FaultInjector, EveryAndMaxGateTheHitIndices)
{
    ScopedDisarm guard;
    FaultInjector &inj = FaultInjector::instance();
    inj.arm(FaultPlan::parse("x=torn:every=2:max=2"));
    const std::vector<FaultKind> none_torn = {
        FaultKind::None, FaultKind::Torn, FaultKind::None,
        FaultKind::Torn, FaultKind::None, FaultKind::None};
    EXPECT_EQ(probeSeq("x", 6), none_torn);
    EXPECT_EQ(inj.firedCount(), 2u);
}

/**
 * @file
 * Tests for the branch-prediction stack: 2-bit counters, bimodal, GAg,
 * BTB, RAS, and the hybrid predictor with speculative-history repair.
 */

#include <gtest/gtest.h>

#include "branch/bimodal.hh"
#include "branch/btb.hh"
#include "branch/gag.hh"
#include "branch/hybrid.hh"
#include "branch/ras.hh"
#include "common/logging.hh"

namespace thermctl
{
namespace
{

TEST(Counter2, SaturatesBothEnds)
{
    Counter2 c(0);
    for (int i = 0; i < 10; ++i)
        c.train(false);
    EXPECT_FALSE(c.taken());
    for (int i = 0; i < 10; ++i)
        c.train(true);
    EXPECT_TRUE(c.taken());
    c.train(false);
    EXPECT_TRUE(c.taken()); // saturated at 3: one flip is not enough
}

TEST(Counter2, HysteresisNeedsTwoFlips)
{
    Counter2 c(3);
    c.train(false);
    EXPECT_TRUE(c.taken()); // 2: still predicts taken
    c.train(false);
    EXPECT_FALSE(c.taken()); // 1
}

TEST(Bimodal, LearnsPerPcBias)
{
    BimodalPredictor pred(1024);
    // Adjacent PCs: guaranteed distinct table entries.
    const Addr pc_t = 0x1000, pc_n = 0x1004;
    for (int i = 0; i < 10; ++i) {
        pred.update(pc_t, true);
        pred.update(pc_n, false);
    }
    EXPECT_TRUE(pred.predict(pc_t));
    EXPECT_FALSE(pred.predict(pc_n));
}

TEST(Bimodal, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(BimodalPredictor(1000), FatalError);
    EXPECT_THROW(BimodalPredictor(0), FatalError);
}

TEST(GAg, LearnsHistoryPattern)
{
    GAgPredictor pred(4096, 12);
    // Alternating pattern: history distinguishes the two contexts.
    std::uint32_t history = 0;
    auto mask = pred.historyMask();
    for (int i = 0; i < 200; ++i) {
        const bool taken = i % 2 == 0;
        pred.updateWith(history, taken);
        history = ((history << 1) | taken) & mask;
    }
    // After training, prediction under each history is correct.
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        const bool taken = i % 2 == 0;
        correct += pred.predictWith(history) == taken;
        pred.updateWith(history, taken);
        history = ((history << 1) | taken) & mask;
    }
    EXPECT_GT(correct, 95);
}

TEST(GAg, RejectsBadGeometry)
{
    EXPECT_THROW(GAgPredictor(1000, 12), FatalError);
    EXPECT_THROW(GAgPredictor(4096, 0), FatalError);
    EXPECT_THROW(GAgPredictor(4096, 40), FatalError);
}

TEST(Btb, StoresAndRefreshesTargets)
{
    BranchTargetBuffer btb(64, 2);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.update(0x1000, 0x2000);
    ASSERT_TRUE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(*btb.lookup(0x1000), 0x2000u);
    btb.update(0x1000, 0x3000);
    EXPECT_EQ(*btb.lookup(0x1000), 0x3000u);
}

TEST(Btb, LruEvictionWithinSet)
{
    BranchTargetBuffer btb(8, 2); // 4 sets
    // Three PCs mapping to the same set (stride = sets * 4 = 16).
    const Addr a = 0x1000, b = 0x1000 + 16, c = 0x1000 + 32;
    btb.update(a, 1);
    btb.update(b, 2);
    btb.lookup(a); // refresh a
    btb.update(c, 3); // evicts b (LRU)
    EXPECT_TRUE(btb.lookup(a).has_value());
    EXPECT_FALSE(btb.lookup(b).has_value());
    EXPECT_TRUE(btb.lookup(c).has_value());
}

TEST(Ras, PushPopOrder)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.top(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u); // empty
}

TEST(Ras, WrapsWhenFull)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites 1
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
}

TEST(Ras, CheckpointRestore)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    const auto tos = ras.tosIndex();
    const auto top = ras.top();
    ras.push(0x200);
    ras.pop();
    ras.pop();
    ras.restore(tos, top);
    EXPECT_EQ(ras.top(), 0x100u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

// --------------------------------------------------------------- hybrid

MicroOp
condBranch(Addr pc, bool taken, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::Branch;
    op.is_branch = true;
    op.is_conditional = true;
    op.taken = taken;
    op.target = taken ? target : 0;
    if (taken)
        op.target = target;
    return op;
}

TEST(Hybrid, LearnsBiasedBranch)
{
    HybridPredictor pred;
    MicroOp op = condBranch(0x1000, true, 0x2000);
    // Train.
    for (int i = 0; i < 20; ++i) {
        auto p = pred.predict(op);
        pred.resolve(op, p);
        if (p.taken != op.taken)
            pred.repairAfterMispredict(op, p);
    }
    auto p = pred.predict(op);
    EXPECT_TRUE(p.taken);
    EXPECT_TRUE(p.btb_hit);
    EXPECT_EQ(p.target, 0x2000u);
}

// The global history a prediction sees is its history_checkpoint, so
// the next prediction's checkpoint is the history after this one.

TEST(Hybrid, SpeculativeHistoryUpdatedAtPredict)
{
    HybridPredictor pred;
    MicroOp op = condBranch(0x1000, true, 0x2000);
    auto p = pred.predict(op);
    EXPECT_EQ(pred.predict(op).history_checkpoint,
              ((p.history_checkpoint << 1) | (p.taken ? 1u : 0u)) & 0xfffu);
}

TEST(Hybrid, RepairRebuildsHistoryWithActualOutcome)
{
    HybridPredictor pred;
    MicroOp op = condBranch(0x1000, true, 0x2000);
    auto p = pred.predict(op);
    pred.repairAfterMispredict(op, p);
    EXPECT_EQ(pred.predict(op).history_checkpoint,
              ((p.history_checkpoint << 1) | 1u) & 0xfffu);
}

TEST(Hybrid, ReturnUsesRas)
{
    HybridPredictor pred;
    MicroOp call;
    call.pc = 0x1000;
    call.op = OpClass::Branch;
    call.is_branch = true;
    call.is_call = true;
    call.taken = true;
    call.target = 0x5000;
    pred.predict(call);

    MicroOp ret;
    ret.pc = 0x5010;
    ret.op = OpClass::Branch;
    ret.is_branch = true;
    ret.is_return = true;
    ret.taken = true;
    ret.target = 0x1004;
    auto p = pred.predict(ret);
    EXPECT_TRUE(p.used_ras);
    EXPECT_EQ(p.target, 0x1004u);
}

TEST(Hybrid, StatsTrackAccuracy)
{
    HybridPredictor pred;
    MicroOp op = condBranch(0x1000, true, 0x2000);
    for (int i = 0; i < 50; ++i) {
        auto p = pred.predict(op);
        pred.resolve(op, p);
        if (p.taken != op.taken)
            pred.repairAfterMispredict(op, p);
    }
    const auto &s = pred.stats();
    EXPECT_EQ(s.cond_lookups, 50u);
    EXPECT_EQ(s.dir_correct + s.dir_wrong, 50u);
    EXPECT_GT(s.dir_correct, 45u); // accuracy above 90%
}

/**
 * Property: on a loop with trip count N, a trained hybrid predictor
 * approaches the theoretical 1 - 1/N accuracy (one exit misprediction
 * per traversal; the 2-bit counters absorb the re-entry).
 */
class LoopAccuracy : public ::testing::TestWithParam<int>
{
};

TEST_P(LoopAccuracy, ApproachesTheoreticalBound)
{
    const int trip = GetParam();
    HybridPredictor pred;
    int correct = 0, total = 0;
    for (int iter = 0; iter < 400; ++iter) {
        for (int i = 0; i < trip; ++i) {
            MicroOp op = condBranch(0x1000, i + 1 < trip, 0x0800);
            auto p = pred.predict(op);
            if (iter >= 50) { // skip warm-up
                ++total;
                correct += p.taken == op.taken;
            }
            pred.resolve(op, p);
            if (p.taken != op.taken)
                pred.repairAfterMispredict(op, p);
        }
    }
    const double accuracy = double(correct) / total;
    const double bound = 1.0 - 1.2 / trip; // small slack over 1 - 1/N
    EXPECT_GT(accuracy, bound) << "trip=" << trip;
}

INSTANTIATE_TEST_SUITE_P(TripCounts, LoopAccuracy,
                         ::testing::Values(4, 8, 16, 32, 64));

} // namespace
} // namespace thermctl

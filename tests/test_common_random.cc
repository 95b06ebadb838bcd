/**
 * @file
 * Tests for the deterministic PRNG: reproducibility, stream separation,
 * and distribution sanity.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"

namespace thermctl
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkDivergesByTag)
{
    Rng parent(77);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng p1(55), p2(55);
    Rng a = p1.fork(9);
    Rng b = p2.fork(9);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(4);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.range(2, 1), PanicError);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, GeometricMeanMatchesTheory)
{
    Rng rng(8);
    for (double p : {0.1, 0.35, 0.8}) {
        double sum = 0.0;
        const int n = 200000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.geometric(p));
        const double expected = (1.0 - p) / p;
        EXPECT_NEAR(sum / n, expected, 0.05 * (expected + 1.0))
            << "p=" << p;
    }
    EXPECT_EQ(rng.geometric(1.0), 0u);
    EXPECT_THROW(rng.geometric(0.0), PanicError);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(9);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian(2.0, 3.0);
        sum += g;
        sq += g * g;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, WeightedFollowsWeights)
{
    Rng rng(10);
    std::vector<double> w = {1.0, 0.0, 3.0};
    std::array<int, 3> counts{};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / double(n), 0.25, 0.01);
    EXPECT_NEAR(counts[2] / double(n), 0.75, 0.01);
    EXPECT_THROW(rng.weighted({0.0, 0.0}), PanicError);
    EXPECT_THROW(rng.weighted({-1.0, 2.0}), PanicError);
    EXPECT_THROW(Rng::weightTotal({0.0, 0.0}), PanicError);
    EXPECT_THROW(Rng::weightTotal({-1.0, 2.0}), PanicError);
}

TEST(Rng, PrecomputedDrawsMatchTheCheckedOnes)
{
    // The cached total and log(1 - p) give the same draws from the same
    // state, and p = 1 draws nothing on either path.
    Rng checked(11), cached(11);
    const std::vector<double> w = {0.4, 0.01, 0.002, 0.05, 0.3};
    const double total = Rng::weightTotal(w);
    for (double p : {0.05, 0.35, 1.0}) {
        const double log_q = std::log(1.0 - p);
        for (int i = 0; i < 10000; ++i) {
            ASSERT_EQ(checked.weighted(w), cached.weighted(w, total));
            ASSERT_EQ(checked.geometric(p), cached.geometric(p, log_q));
        }
    }
    EXPECT_EQ(checked.next(), cached.next());
}

} // namespace
} // namespace thermctl

/**
 * @file
 * Unit and property tests for the streaming statistics primitives.
 */

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace thermctl
{
namespace
{

TEST(Accumulator, EmptyStateIsZeroed)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 0.0);
    EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(BoxcarAverage, RejectsZeroWindow)
{
    EXPECT_THROW(BoxcarAverage(0), FatalError);
}

TEST(BoxcarAverage, PartialWindowAveragesSeenSamples)
{
    BoxcarAverage box(4);
    EXPECT_DOUBLE_EQ(box.average(), 0.0);
    box.add(2.0);
    EXPECT_DOUBLE_EQ(box.average(), 2.0);
    box.add(4.0);
    EXPECT_DOUBLE_EQ(box.average(), 3.0);
}

TEST(BoxcarAverage, EvictsOldestOnceFull)
{
    BoxcarAverage box(3);
    box.add(1.0);
    box.add(2.0);
    box.add(3.0);
    EXPECT_DOUBLE_EQ(box.average(), 2.0);
    box.add(10.0); // evicts 1.0
    EXPECT_DOUBLE_EQ(box.average(), 5.0);
    box.add(10.0); // evicts 2.0
    EXPECT_NEAR(box.average(), 23.0 / 3.0, 1e-12);
}

TEST(BoxcarAverage, ResetClears)
{
    BoxcarAverage box(2);
    box.add(5.0);
    box.reset();
    EXPECT_EQ(box.size(), 0u);
    EXPECT_DOUBLE_EQ(box.average(), 0.0);
}

/** Property: the incremental boxcar equals a naive recomputation. */
class BoxcarProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BoxcarProperty, MatchesNaiveRecomputation)
{
    const std::size_t window = GetParam();
    BoxcarAverage box(window);
    Rng rng(window * 977);
    std::vector<double> samples;
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(-5.0, 50.0);
        samples.push_back(x);
        box.add(x);

        double naive = 0.0;
        const std::size_t n = std::min(samples.size(), window);
        for (std::size_t k = samples.size() - n; k < samples.size(); ++k)
            naive += samples[k];
        naive /= static_cast<double>(n);
        ASSERT_NEAR(box.average(), naive, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, BoxcarProperty,
                         ::testing::Values(1, 2, 3, 7, 64, 1000));

TEST(Histogram, BinBoundariesAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(9.999);
    h.add(10.0);
    h.add(5.5);
    EXPECT_EQ(h.total(), 5u);
    // -1 underflows, so the bottom fifth sits at lo; 10 overflows, so
    // the top tenth sits at hi (in the first or last bin both would
    // interpolate inside it).
    EXPECT_EQ(h.quantile(0.2), 0.0);
    EXPECT_EQ(h.quantile(0.9), 10.0);

    // A lone sample's median is the middle of the bin add() chose.
    const std::pair<double, double> sample_mid[] = {
        {0.0, 0.5}, {4.999, 4.5}, {5.0, 5.5}, {5.5, 5.5}, {9.999, 9.5}};
    for (const auto &[x, mid] : sample_mid) {
        Histogram one(0.0, 10.0, 10);
        one.add(x);
        EXPECT_DOUBLE_EQ(one.quantile(0.5), mid) << x;
    }
}

TEST(Histogram, QuantileOfUniformData)
{
    Histogram h(0.0, 1.0, 100);
    Rng rng(42);
    for (int i = 0; i < 100000; ++i)
        h.add(rng.uniform());
    EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
    EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
    EXPECT_NEAR(h.quantile(0.99), 0.99, 0.02);
}

TEST(Histogram, RejectsBadConfig)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 10), FatalError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), FatalError);
}

} // namespace
} // namespace thermctl

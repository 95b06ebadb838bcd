/**
 * @file
 * Streaming statistics primitives used across the simulator: scalar
 * accumulators, fixed-window boxcar averages (the paper's power proxy)
 * and simple histograms.
 */

#ifndef THERMCTL_COMMON_STATS_HH
#define THERMCTL_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace thermctl
{

/**
 * Streaming scalar accumulator: count, running mean, min, max.
 */
class Accumulator
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Reset to the empty state. */
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const;
    double max() const;

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-length sliding-window ("boxcar") average.
 *
 * This is exactly the temperature proxy used by prior DTM work that the
 * paper's Section 6 evaluates: the average of the last W per-cycle power
 * samples. Until the window has filled, the average is over the samples
 * seen so far.
 */
class BoxcarAverage
{
  public:
    /** @param window number of most recent samples averaged; must be > 0. */
    explicit BoxcarAverage(std::size_t window);

    /** Push the next sample, evicting the oldest once the window is full. */
    void add(double x);

    /** @return current windowed average (0 when empty). */
    double average() const;

    /** @return number of samples currently in the window. */
    std::size_t size() const { return filled_; }

    /** @return configured window length. */
    std::size_t window() const { return buf_.size(); }

    /** Drop all samples. */
    void reset();

  private:
    std::vector<double> buf_;
    std::size_t head_ = 0;
    std::size_t filled_ = 0;
    double sum_ = 0.0;
    /** Periodically recomputed exact sum to bound float drift. */
    std::uint64_t adds_since_resum_ = 0;
    void resum();
};

/** Uniform-bin histogram over [lo, hi) with under/overflow bins. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::uint64_t total() const { return total_; }

    /** Linear-interpolated quantile estimate, q in [0, 1]. */
    double quantile(double q) const;

  private:
    double binLow(std::size_t bin) const;

    double lo_, hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace thermctl

#endif // THERMCTL_COMMON_STATS_HH

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in thermctl (workload synthesis, sensor noise,
 * wrong-path instruction generation) flows through Rng so that a run is
 * fully reproducible from its seed — the moral equivalent of the paper's
 * use of SimpleScalar EIO traces "to ensure reproducible results for each
 * benchmark across multiple simulations".
 *
 * The generator is xoshiro256** seeded via SplitMix64; it is small, fast,
 * and has well-understood statistical quality.
 */

#ifndef THERMCTL_COMMON_RANDOM_HH
#define THERMCTL_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

namespace thermctl
{

/** Deterministic xoshiro256** PRNG with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** @return the next raw 64-bit variate. */
    std::uint64_t next();

    /** @return a uniform double in [0, 1). */
    double uniform();

    /** @return a uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return a uniform integer in [0, n) ; n must be > 0. */
    std::uint64_t below(std::uint64_t n);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** @return true with probability p (clamped to [0, 1]). */
    bool chance(double p);

    /**
     * Geometric variate: number of failures before the first success,
     * success probability p in (0, 1]. Used for dependency-distance and
     * loop-trip-count sampling in the workload generator.
     */
    std::uint64_t geometric(double p);

    /**
     * geometric(p) with `log_q` = std::log(1.0 - p) computed once by a
     * caller that has checked p in (0, 1]: the same variate, without a
     * log of p per draw.
     */
    std::uint64_t geometric(double p, double log_q);

    /** Standard normal variate (Box–Muller; caches the spare value). */
    double gaussian();

    /** Normal variate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Sample an index from a discrete distribution given by non-negative
     * weights. The weights need not be normalized; at least one must be
     * positive.
     */
    std::size_t weighted(const std::vector<double> &weights);

    /**
     * weighted(weights) with `total` = weightTotal(weights) computed once
     * by the caller: the same draw, without re-summing and re-checking
     * the weights per draw.
     */
    std::size_t weighted(const std::vector<double> &weights, double total);

    /**
     * @return the sum of `weights` as weighted() forms it; panics on a
     * negative weight or a zero sum.
     */
    static double weightTotal(const std::vector<double> &weights);

    /**
     * Derive an independent child generator; children with distinct tags
     * produce uncorrelated streams. Used to give each benchmark profile
     * and each subsystem its own stream.
     */
    Rng fork(std::uint64_t tag) const;

  private:
    std::uint64_t s_[4];
    double spare_gaussian_ = 0.0;
    bool has_spare_ = false;
};

} // namespace thermctl

#endif // THERMCTL_COMMON_RANDOM_HH

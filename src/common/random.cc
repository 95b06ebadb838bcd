#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace thermctl
{

namespace
{

/** SplitMix64 step: seeds the xoshiro state from a single 64-bit value. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
    // xoshiro must not start from the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::below called with n == 0");
    // Debiased modulo via rejection on the top range.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::range called with lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::geometric(double p)
{
    if (p <= 0.0 || p > 1.0)
        panic("Rng::geometric requires p in (0, 1], got ", p);
    return geometric(p, std::log(1.0 - p));
}

std::uint64_t
Rng::geometric(double p, double log_q)
{
    if (p == 1.0)
        return 0;
    // Inverse-CDF sampling; u in (0,1) to keep the log finite.
    double u = 1.0 - uniform();
    return static_cast<std::uint64_t>(std::log(u) / log_q);
}

double
Rng::gaussian()
{
    if (has_spare_) {
        has_spare_ = false;
        return spare_gaussian_;
    }
    double u1 = 1.0 - uniform(); // (0, 1]
    double u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
    has_spare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

std::size_t
Rng::weighted(const std::vector<double> &weights)
{
    return weighted(weights, weightTotal(weights));
}

double
Rng::weightTotal(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            panic("Rng::weighted: negative weight ", w);
        total += w;
    }
    if (total <= 0.0)
        panic("Rng::weighted: all weights zero");
    return total;
}

std::size_t
Rng::weighted(const std::vector<double> &weights, double total)
{
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork(std::uint64_t tag) const
{
    // Mix the current state with the tag through SplitMix64 so children
    // with different tags diverge immediately.
    std::uint64_t x = s_[0] ^ rotl(s_[2], 13) ^ (tag * 0x9e3779b97f4a7c15ULL);
    std::uint64_t seed = splitmix64(x);
    return Rng(seed ^ tag);
}

} // namespace thermctl

#include "serve/retry.hh"

#include <algorithm>

namespace thermctl::serve
{

BackoffPolicy::BackoffPolicy(const BackoffConfig &config)
    : config_(config), rng_(config.seed)
{
}

BackoffPolicy::Decision
BackoffPolicy::next(std::uint64_t elapsed_ms,
                    std::uint32_t retry_after_ms)
{
    if (attempts_ >= std::max(1u, config_.max_attempts))
        return {false, 0};

    // Decorrelated jitter (AWS architecture blog): each sleep is drawn
    // from uniform[base, 3 * previous), clamped to the cap. Unlike
    // plain exponential-with-jitter this decorrelates concurrent
    // clients quickly while still growing geometrically in expectation.
    const double base = static_cast<double>(std::max(1u, config_.base_ms));
    const double prev =
        prev_sleep_ms_ > 0 ? static_cast<double>(prev_sleep_ms_) : base;
    double sleep = rng_.uniform(base, std::max(base + 1.0, prev * 3.0));
    sleep = std::min(sleep, static_cast<double>(config_.cap_ms));
    // A server retry-after hint floors the sleep: the server knows its
    // backlog better than our local guess does.
    sleep = std::max(sleep, static_cast<double>(retry_after_ms));
    sleep = std::min(sleep, static_cast<double>(config_.cap_ms));

    auto sleep_ms = static_cast<std::uint32_t>(sleep);
    if (config_.deadline_ms != 0
        && elapsed_ms + sleep_ms >= config_.deadline_ms) {
        // The budget cannot fit the sleep plus any useful attempt:
        // report exhaustion now rather than sleeping into the deadline.
        return {false, 0};
    }

    attempts_++;
    prev_sleep_ms_ = sleep_ms;
    return {true, sleep_ms};
}

} // namespace thermctl::serve

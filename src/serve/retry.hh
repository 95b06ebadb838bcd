/**
 * @file
 * Client-side retry policy: bounded retries with exponential backoff,
 * decorrelated jitter, and an end-to-end deadline budget.
 *
 * Retrying a simulation request is safe because requests are
 * *idempotent by construction*: a request's identity is its sweep
 * digest (sweepConfigDigest over the fully resolved configuration), a
 * run is a pure function of that configuration, and the server
 * coalesces and caches by the same digest. Sending the same request
 * twice therefore cannot produce a different answer or duplicate work
 * that matters — the worst case is one extra cache hit.
 *
 * ServeClient (serve/client.hh) retries only two failure classes:
 *  - Transport: the connection broke or could not be established; the
 *    request may or may not have executed, which is exactly the case
 *    idempotency exists for.
 *  - Overloaded: the server said "queue full"; its retry-after hint
 *    (PointReply::retry_after_ms) becomes the floor of the next sleep.
 *
 * Every other error (BadRequest, Draining, DeadlineExceeded, Stalled,
 * Internal, ...) is returned to the caller unchanged — retrying a
 * request the server *answered* with a terminal verdict just burns the
 * budget.
 *
 * The backoff sequence is deterministic given BackoffConfig::seed, so
 * chaos runs replay exactly (see src/fault/fault.hh).
 */

#ifndef THERMCTL_SERVE_RETRY_HH
#define THERMCTL_SERVE_RETRY_HH

#include <cstdint>

#include "common/random.hh"

namespace thermctl::serve
{

/** Knobs of the retry/backoff policy. */
struct BackoffConfig
{
    std::uint32_t base_ms = 50;   ///< first sleep ~uniform[base, 3*base)
    std::uint32_t cap_ms = 2000;  ///< per-sleep ceiling
    std::uint32_t max_attempts = 5; ///< total tries (1 = no retries)
    /** End-to-end budget across attempts + sleeps; 0 = unbounded. */
    std::uint64_t deadline_ms = 0;
    /**
     * Bound on each reconnect attempt. Reconnect time is charged
     * against deadline_ms like everything else, so a flapping server
     * cannot stretch one request with unbounded connect hangs; 0 falls
     * back to a blocking connect (still capped by the deadline budget
     * when one is set).
     */
    std::uint32_t connect_timeout_ms = 1000;
    std::uint64_t seed = 0x7e7217ULL; ///< jitter stream seed
};

/**
 * Decorrelated-jitter backoff under a deadline budget. Pure policy
 * math — no sockets, no clocks; the caller reports elapsed time and
 * receives sleep durations, which makes the sequence unit-testable and
 * deterministic per seed.
 */
class BackoffPolicy
{
  public:
    explicit BackoffPolicy(const BackoffConfig &config);

    /** Verdict for one failed attempt. */
    struct Decision
    {
        bool retry = false;        ///< false: budget/attempts exhausted
        std::uint32_t sleep_ms = 0; ///< wait before the next attempt
    };

    /**
     * Decide after a failed attempt. `elapsed_ms` is wall time since
     * the first attempt started; `retry_after_ms` (a server hint, 0 =
     * none) becomes the floor of the computed sleep, but the cap still
     * wins. Never returns a sleep that would overrun the deadline
     * budget: once the budget cannot fit another sleep + attempt, the
     * answer is {false, 0} — no final pointless sleep.
     */
    Decision next(std::uint64_t elapsed_ms,
                  std::uint32_t retry_after_ms = 0);

    /** Attempts granted so far (including the first). */
    std::uint32_t attempts() const { return attempts_; }

  private:
    BackoffConfig config_;
    Rng rng_;
    std::uint32_t attempts_ = 1; ///< the first attempt is underway
    std::uint32_t prev_sleep_ms_ = 0;
};

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_RETRY_HH

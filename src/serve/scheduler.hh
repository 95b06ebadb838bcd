/**
 * @file
 * Request scheduler for thermctl-serve: admission control, single-flight
 * coalescing, and batched dispatch onto the SweepEngine.
 *
 * Every request resolves to a SweepPoint whose identity is the sweep
 * cache digest (sweepConfigDigest): two requests the simulator cannot
 * distinguish share a digest. The scheduler exploits that three ways:
 *
 *  - Single-flight: a request whose digest is already queued or running
 *    attaches to the existing run's future instead of enqueueing a
 *    duplicate — N identical concurrent requests cost one simulation.
 *  - Batching: a dispatcher drains the queue in one sweep and hands the
 *    batch to one SweepEngine::run() call, so the engine's worker pool
 *    parallelizes across it. Each point finishes when the engine reports
 *    it, so a cache hit never waits for its batch's simulations.
 *  - Bounded queue: submit() past `max_queue` undispatched points is
 *    rejected immediately with Overloaded — the server never queues
 *    unboundedly and never blocks admission on simulation progress.
 *
 * The engine's content-addressed on-disk cache sits under all of this
 * as a read-through layer, so repeated requests across server restarts
 * are served without simulation.
 */

#ifndef THERMCTL_SERVE_SCHEDULER_HH
#define THERMCTL_SERVE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.hh"
#include "common/stats.hh"
#include "serve/protocol.hh"
#include "sim/sweep.hh"

namespace thermctl::serve
{

/** The engine's resolved point, under the name the perf harness uses. */
using ResolvedPoint = SweepPoint;

/**
 * Resolve a wire PointSpec against the server's base configuration.
 * Throws FatalError for unknown benchmark or policy names, zero measured
 * cycles, and a multicore point under a policy the multicore engine
 * does not run.
 */
SweepPoint resolvePoint(const PointSpec &spec, const SimConfig &base);

/** Counter snapshot (see protocol.hh StatsReply for field meanings). */
struct SchedulerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t simulated = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_deadline = 0;
    std::uint64_t failed = 0;
    std::uint64_t stalled = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_high_water = 0;
    std::uint64_t latency_count = 0;
    double latency_mean_ms = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p90_ms = 0.0;
    double latency_p99_ms = 0.0;
};

/** Admission, batching, and dispatch of resolved points. */
class Scheduler
{
  public:
    struct Options
    {
        /** Engine knobs: worker threads and the read-through cache. */
        SweepOptions sweep;

        /** Admission bound on undispatched points. */
        std::size_t max_queue = 256;

        /** Dispatcher threads (each runs one batch at a time). */
        unsigned dispatchers = 2;

        /**
         * After the first point of a batch arrives, wait this long for
         * more points to coalesce/batch before dispatching. 0 keeps
         * latency minimal; the serve-smoke stage raises it to make
         * duplicate detection deterministic.
         */
        unsigned batch_window_ms = 0;

        /**
         * Watchdog: fail a dispatched point with ServeError::Stalled
         * when its batch has made no progress for this long. 0 turns
         * the watchdog off (no extra thread).
         */
        unsigned watchdog_ms = 0;
    };

    /** Terminal state of one scheduled point. */
    struct Outcome
    {
        ServeError error = ServeError::None;
        std::string message;
        RunResult result;
        bool cache_hit = false;
        double server_ms = 0.0; ///< submit-to-completion wall time
        /** Overloaded only: suggested client backoff before retrying. */
        std::uint32_t retry_after_ms = 0;
    };

    using OutcomePtr = std::shared_ptr<const Outcome>;

    /** Handle returned by submit(); the future is always valid. */
    struct Ticket
    {
        std::shared_future<OutcomePtr> future;

        /** This request attached to an identical in-flight run. */
        bool coalesced = false;

        /** Admission rejected (future already holds the error). */
        bool rejected = false;
    };

    explicit Scheduler(const Options &opts);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit one point. Never blocks on simulation progress: returns a
     * coalesced ticket, a queued ticket, or an immediately rejected
     * ticket (Overloaded when the queue is full, Draining after
     * beginDrain()).
     */
    Ticket submit(const SweepPoint &point, std::uint64_t deadline_ms)
        THERMCTL_EXCLUDES(mutex_);

    /**
     * Hold dispatch (queued points stay queued; running batches finish).
     * Tests use this to make coalescing and overload deterministic.
     */
    void pauseDispatch() THERMCTL_EXCLUDES(mutex_);
    void resumeDispatch() THERMCTL_EXCLUDES(mutex_);

    /** Refuse new submissions; queued and running work continues. */
    void beginDrain() THERMCTL_EXCLUDES(mutex_);

    /** Block until no point is queued or running. */
    void awaitIdle() THERMCTL_EXCLUDES(mutex_);

    /** Drain, finish everything, and join the dispatchers. */
    void stop() THERMCTL_EXCLUDES(mutex_);

    SchedulerStats stats() const THERMCTL_EXCLUDES(mutex_);

  private:
    struct Pending;

    void dispatchLoop() THERMCTL_EXCLUDES(mutex_);
    void watchdogLoop() THERMCTL_EXCLUDES(mutex_);
    void runBatch(std::vector<std::shared_ptr<Pending>> batch)
        THERMCTL_EXCLUDES(mutex_);
    void finish(const std::shared_ptr<Pending> &p, Outcome outcome)
        THERMCTL_EXCLUDES(mutex_);

    /** Pop every queued point as one batch. */
    std::vector<std::shared_ptr<Pending>> takeBatch()
        THERMCTL_REQUIRES(mutex_);

    Options opts_;
    SweepEngine engine_;

    mutable Mutex mutex_;
    CondVar work_cv_; ///< queue became non-empty / state change
    CondVar idle_cv_; ///< queue + in-flight went empty
    CondVar watchdog_cv_; ///< wakes the watchdog early on stop()
    std::deque<std::shared_ptr<Pending>> queue_
        THERMCTL_GUARDED_BY(mutex_);
    std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> inflight_
        THERMCTL_GUARDED_BY(mutex_);
    /** Points currently in a running batch. */
    std::size_t dispatching_ THERMCTL_GUARDED_BY(mutex_) = 0;
    bool paused_ THERMCTL_GUARDED_BY(mutex_) = false;
    bool draining_ THERMCTL_GUARDED_BY(mutex_) = false;
    bool stopping_ THERMCTL_GUARDED_BY(mutex_) = false;

    SchedulerStats counters_ THERMCTL_GUARDED_BY(mutex_);
    Accumulator latency_ms_ THERMCTL_GUARDED_BY(mutex_);
    Histogram latency_hist_ms_ THERMCTL_GUARDED_BY(mutex_);

    std::vector<std::thread> dispatchers_;
    std::thread watchdog_;
};

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_SCHEDULER_HH

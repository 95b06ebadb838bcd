#include "serve/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/random.hh"
#include "common/thread_annotations.hh"
#include "fault/fault.hh"
#include "serve/client.hh"
#include "serve/scheduler.hh"
#include "sim/sweep.hh"

namespace thermctl::serve
{

void
CoordinatorOptions::validate() const
{
    if (endpoints.empty())
        fatal("coordinator: at least one worker endpoint is required");
    if (lease_ms == 0)
        fatal("coordinator: lease must be > 0 ms");
    if (probe_interval_ms == 0)
        fatal("coordinator: probe interval must be > 0 ms");
    if (max_point_attempts == 0)
        fatal("coordinator: max point attempts must be > 0");
    if (unhealthy_after == 0)
        fatal("coordinator: unhealthy-after must be > 0");
}

const char *
workerHealthName(WorkerHealth h)
{
    switch (h) {
      case WorkerHealth::Healthy: return "healthy";
      case WorkerHealth::Unhealthy: return "unhealthy";
      case WorkerHealth::Quarantined: return "quarantined";
      default: return "?";
    }
}

bool
CoordinatorReport::complete() const
{
    return std::all_of(outcomes.begin(), outcomes.end(),
                       [](const CoordPointOutcome &o) {
                           return o.reply.error == ServeError::None;
                       });
}

std::vector<std::string>
CoordinatorReport::missingKeys() const
{
    std::vector<std::string> missing;
    for (const auto &o : outcomes)
        if (o.reply.error != ServeError::None)
            missing.push_back(o.key);
    return missing;
}

Coordinator::Coordinator(CoordinatorOptions opts) : opts_(std::move(opts))
{
}

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedMs(Clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

/** Settlement phase of one representative (digest-unique) point. */
enum class Phase : std::uint8_t
{
    Pending,  ///< in some worker's backlog
    InFlight, ///< at least one dispatch outstanding
    Done,     ///< completed; bytes hold the canonical serialization
    Failed,   ///< typed terminal failure (reply carries the cause)
};

struct PointState
{
    PointSpec spec;
    std::string key;
    std::uint64_t digest = 0;
    Phase phase = Phase::Pending;
    unsigned attempts = 0;
    unsigned inflight = 0; ///< dispatches currently outstanding
    bool shadowed = false; ///< a speculative duplicate was issued
    std::size_t owner = 0; ///< worker of the primary dispatch
    std::string bytes;     ///< serialized result (duplicate compare key)
    PointReply reply;
    std::string worker; ///< endpoint that completed it
};

struct WorkerState
{
    std::deque<std::size_t> backlog;
    WorkerHealth health = WorkerHealth::Healthy;
    unsigned consecutive_failures = 0;
    Clock::time_point quarantined_until{};
    CoordWorkerStats stats;
};

/** One dispatch's ending, mapped from the typed reply (or its absence). */
enum class DispatchKind
{
    Completed,
    Transport,    ///< connection failed or broke below the lease
    LeaseExpired, ///< worker silent for the whole lease
    Overloaded,   ///< worker queue full; honor retry_after_ms
    Stalled,      ///< typed Stalled / DeadlineExceeded from the worker
    Draining,     ///< worker is shutting down; quarantine + reassign
    Terminal,     ///< BadRequest/Internal/VersionMismatch: do not retry
};

struct Dispatch
{
    DispatchKind kind = DispatchKind::Transport;
    PointReply reply; ///< meaningful unless the reply never arrived
    std::string error;
};

/**
 * The machinery of one Coordinator::run(): per-worker agent threads, a
 * health prober, and the shared settlement state. Lives on the stack of
 * run() and joins everything before returning.
 */
class Flock
{
  public:
    Flock(const CoordinatorOptions &opts, std::vector<PointState> points)
        : opts_(opts), points_(std::move(points)),
          workers_(opts.endpoints.size())
    {
        for (std::size_t wi = 0; wi < workers_.size(); ++wi)
            workers_[wi].stats.endpoint = opts_.endpoints[wi];
        // Round-robin shard; points that failed to resolve never enter
        // a backlog (they are already settled as Failed).
        std::size_t next = 0;
        for (std::size_t pi = 0; pi < points_.size(); ++pi) {
            if (points_[pi].phase != Phase::Pending)
                continue;
            workers_[next % workers_.size()].backlog.push_back(pi);
            next++;
            unsettled_++;
        }
    }

    void
    runAll()
    {
        std::vector<std::thread> agents;
        agents.reserve(workers_.size());
        for (std::size_t wi = 0; wi < workers_.size(); ++wi)
            agents.emplace_back([this, wi] { agentLoop(wi); });
        std::thread prober([this] { proberLoop(); });
        for (auto &t : agents)
            t.join();
        prober.join();
        MutexLock lock(mutex_);
        if (!mismatch_.empty())
            fatal(mismatch_);
    }

    const PointState &
    point(std::size_t pi) const
    {
        // Only called after runAll() joined every thread.
        return points_[pi];
    }

    std::vector<CoordWorkerStats>
    workerStats() const
    {
        std::vector<CoordWorkerStats> out;
        out.reserve(workers_.size());
        for (const auto &w : workers_) {
            CoordWorkerStats s = w.stats;
            s.health = w.health;
            out.push_back(std::move(s));
        }
        return out;
    }

  private:
    /** A single-attempt client of worker `wi`; it dials lazily. */
    ServeClient
    workerClient(std::size_t wi) const
    {
        BackoffConfig config;
        config.max_attempts = 1;
        config.connect_timeout_ms = opts_.connect_timeout_ms;
        return ServeClient(opts_.endpoints[wi], config);
    }

    // ------------------------------------------------------- agent side

    void
    agentLoop(std::size_t wi)
    {
        // The coordinator does its own rerouting, so the client makes
        // one attempt per dispatch; the lease doubles as the receive
        // timeout, kept across redials, so a worker that goes silent
        // costs exactly one lease, never a hang.
        ServeClient client = workerClient(wi);
        client.setRecvTimeout(opts_.lease_ms);
        BackoffConfig overload;
        overload.base_ms = 25;
        overload.cap_ms = 2000;
        overload.max_attempts = std::numeric_limits<std::uint32_t>::max();
        overload.seed = Rng(opts_.seed).fork(wi + 1).next();
        BackoffPolicy backoff(overload);
        for (;;) {
            std::size_t pi = 0;
            RunRequest req;
            {
                MutexLock lock(mutex_);
                if (!acquireWork(wi, pi, req))
                    return;
            }
            Dispatch d = dispatchOne(client, req);
            std::uint32_t sleep_ms = 0;
            {
                MutexLock lock(mutex_);
                sleep_ms = settle(wi, pi, d, backoff);
                cv_.notify_all();
            }
            if (sleep_ms > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleep_ms));
            }
        }
    }

    /**
     * Pick the next point for worker `wi`: own backlog first, then
     * steal from the largest backlog, then shadow a point still in
     * flight elsewhere. Blocks (with periodic re-checks) while there is
     * nothing to do; returns false once the run is settled or aborted.
     */
    bool
    acquireWork(std::size_t wi, std::size_t &pi, RunRequest &req)
        THERMCTL_REQUIRES(mutex_)
    {
        for (;;) {
            if (unsettled_ == 0 || !mismatch_.empty())
                return false;
            WorkerState &w = workers_[wi];
            if (w.health == WorkerHealth::Quarantined) {
                const bool any_active = std::any_of(
                    workers_.begin(), workers_.end(),
                    [](const WorkerState &o) {
                        return o.health != WorkerHealth::Quarantined;
                    });
                if (any_active) {
                    // Only the prober re-admits; wait it out while the
                    // healthy workers drain (or steal) the points.
                    cv_.waitUntil(
                        mutex_,
                        Clock::now() + std::chrono::milliseconds(50));
                    continue;
                }
                // Every worker is quarantined (the whole cluster is
                // down or sick). Waiting for re-admission could block
                // forever, so dispatch anyway: each attempt burns the
                // point's budget, which guarantees settlement — every
                // point ends Done or Failed in bounded time.
            }
            bool shadow = false;
            if (!w.backlog.empty()) {
                pi = w.backlog.front();
                w.backlog.pop_front();
            } else {
                // Steal from the slowest worker's backlog (largest
                // pile of unstarted work), taking from the back so the
                // victim's own head-of-line point is untouched.
                std::size_t victim = workers_.size();
                std::size_t depth = 0;
                for (std::size_t j = 0; j < workers_.size(); ++j) {
                    if (j != wi && workers_[j].backlog.size() > depth) {
                        victim = j;
                        depth = workers_[j].backlog.size();
                    }
                }
                if (victim < workers_.size()) {
                    pi = workers_[victim].backlog.back();
                    workers_[victim].backlog.pop_back();
                    w.stats.stolen++;
                } else if (findShadow(wi, pi)) {
                    shadow = true;
                    w.stats.shadowed++;
                } else {
                    cv_.waitUntil(
                        mutex_,
                        Clock::now() + std::chrono::milliseconds(100));
                    continue;
                }
            }
            PointState &p = points_[pi];
            if (p.phase == Phase::Done || p.phase == Phase::Failed)
                continue; // settled while parked in a backlog
            if (!shadow) {
                p.phase = Phase::InFlight;
                p.owner = wi;
            } else {
                p.shadowed = true;
            }
            p.attempts++;
            p.inflight++;
            w.stats.dispatched++;
            req.point = p.spec;
            req.deadline_ms = opts_.lease_ms;
            return true;
        }
    }

    /**
     * End-of-grid speculation: a point still in flight on one *other*
     * worker, not yet shadowed. At most one shadow per point keeps the
     * worst-case duplicate work at 2x on the final stragglers only. A
     * shadow is a dispatch attempt, so a point whose attempt budget is
     * spent is never shadowed.
     */
    bool
    findShadow(std::size_t wi, std::size_t &pi) THERMCTL_REQUIRES(mutex_)
    {
        for (std::size_t i = 0; i < points_.size(); ++i) {
            PointState &p = points_[i];
            if (p.phase == Phase::InFlight && !p.shadowed
                && p.inflight == 1 && p.owner != wi
                && p.attempts < opts_.max_point_attempts) {
                pi = i;
                return true;
            }
        }
        return false;
    }

    /** One dispatch over the wire; no shared state touched. */
    Dispatch
    dispatchOne(ServeClient &client, const RunRequest &req)
        THERMCTL_EXCLUDES(mutex_)
    {
        Dispatch d;
        const auto fp = THERMCTL_FAULT_POINT("coord.dispatch");
        if (fp.stall()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fp.stall_ms));
        }
        if (fp.abort()) {
            d.kind = DispatchKind::Transport;
            d.error = "injected dispatch fault";
            return d;
        }
        // Dial before the lease clock starts: connect time is bounded
        // by its own timeout and must not read as a silent worker.
        if (!client.reconnect(d.error)) {
            d.kind = DispatchKind::Transport;
            return d;
        }
        const auto t0 = Clock::now();
        PointReply r;
        try {
            r = client.run(req);
        } catch (const FatalError &e) {
            // A protocol-level violation (foreign wire version, garbage
            // frames) is not retryable on this worker, but other
            // workers may be fine: treat it as a transport failure and
            // let the health ladder quarantine the offender.
            d.kind = DispatchKind::Transport;
            d.error = e.what();
            return d;
        }
        if (r.error == ServeError::Transport) {
            // Distinguish "the connection broke" from "the worker went
            // silent for the whole lease" — the latter is a stall, and
            // stalls are reassigned elsewhere rather than retried here.
            d.kind = elapsedMs(t0) + 50 >= opts_.lease_ms
                         ? DispatchKind::LeaseExpired
                         : DispatchKind::Transport;
            d.error = r.message;
            return d;
        }
        const auto fc = THERMCTL_FAULT_POINT("coord.collect");
        if (fc.stall()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fc.stall_ms));
        }
        if (fc.abort()) {
            // The worker's answer is dropped on the floor. For the
            // coordinator this is a lost reply and the point gets
            // re-dispatched; the duplicate-completion byte-compare is
            // what makes that safe.
            d.kind = DispatchKind::Transport;
            d.error = "injected collect fault (reply dropped)";
            return d;
        }
        d.reply = std::move(r);
        switch (d.reply.error) {
          case ServeError::None:
            d.kind = DispatchKind::Completed;
            break;
          case ServeError::Overloaded:
            d.kind = DispatchKind::Overloaded;
            break;
          case ServeError::Stalled:
          case ServeError::DeadlineExceeded:
            d.kind = DispatchKind::Stalled;
            break;
          case ServeError::Draining:
            d.kind = DispatchKind::Draining;
            break;
          default:
            d.kind = DispatchKind::Terminal;
            break;
        }
        return d;
    }

    /** Apply one dispatch outcome. @return backoff sleep for the agent. */
    std::uint32_t
    settle(std::size_t wi, std::size_t pi, Dispatch &d,
           BackoffPolicy &backoff) THERMCTL_REQUIRES(mutex_)
    {
        PointState &p = points_[pi];
        WorkerState &w = workers_[wi];
        p.inflight--;
        switch (d.kind) {
          case DispatchKind::Completed:
            w.stats.completed++;
            noteSuccess(wi);
            completeLocked(pi, std::move(d.reply), wi);
            return 0;

          case DispatchKind::Transport:
          case DispatchKind::LeaseExpired:
            if (d.kind == DispatchKind::Transport)
                w.stats.transport_failures++;
            else
                w.stats.lease_expiries++;
            noteFailure(wi);
            requeueLocked(pi, wi, ServeError::Transport, d.error);
            return 0;

          case DispatchKind::Stalled:
            w.stats.stalls++;
            noteFailure(wi);
            requeueLocked(pi, wi, ServeError::Stalled, d.reply.message);
            return 0;

          case DispatchKind::Overloaded: {
            w.stats.overloads++;
            // The worker answered — it is busy, not sick: no health
            // penalty, and the agent backs off before its next
            // dispatch, floored on the server's own hint (the 2 s cap
            // still wins).
            requeueLocked(pi, wi, ServeError::Overloaded,
                          d.reply.message);
            return backoff.next(0, d.reply.retry_after_ms).sleep_ms;
          }

          case DispatchKind::Draining:
            noteFailure(wi);
            quarantineLocked(wi);
            requeueLocked(pi, wi, ServeError::Draining, d.reply.message);
            return 0;

          case DispatchKind::Terminal:
            failLocked(pi, std::move(d.reply));
            return 0;
        }
        return 0;
    }

    // ------------------------------------------------ state transitions

    void
    completeLocked(std::size_t pi, PointReply reply, std::size_t wi)
        THERMCTL_REQUIRES(mutex_)
    {
        PointState &p = points_[pi];
        const std::string bytes = serializeRunResult(reply.result);
        if (p.phase == Phase::Done) {
            // At-least-once dispatch means genuine duplicates (shadows,
            // dropped replies). Exactly-once-in-effect holds only if
            // every completion of a digest is bit-identical; anything
            // else means a nondeterministic worker or a foreign base
            // config, and the merged results cannot be trusted.
            if (bytes != p.bytes && mismatch_.empty()) {
                mismatch_ = "coordinator: duplicate completions for "
                            + p.key + " differ byte-for-byte ("
                            + opts_.endpoints[wi] + " vs " + p.worker
                            + "): nondeterministic worker or mismatched "
                              "base config";
            }
            return;
        }
        const bool was_settled = p.phase == Phase::Failed;
        p.phase = Phase::Done;
        p.bytes = bytes;
        p.reply = std::move(reply);
        p.worker = opts_.endpoints[wi];
        if (!was_settled)
            settleOne();
    }

    void
    failLocked(std::size_t pi, PointReply reply) THERMCTL_REQUIRES(mutex_)
    {
        PointState &p = points_[pi];
        if (p.phase == Phase::Done || p.phase == Phase::Failed)
            return;
        p.phase = Phase::Failed;
        p.reply = std::move(reply);
        settleOne();
    }

    /**
     * A dispatch failed without a terminal verdict: re-shard the point
     * to the healthiest other worker, or fail it once its attempt
     * budget is gone. No-op while a duplicate dispatch is still out —
     * the survivor settles the point.
     */
    void
    requeueLocked(std::size_t pi, std::size_t wi, ServeError cause,
                  const std::string &detail) THERMCTL_REQUIRES(mutex_)
    {
        PointState &p = points_[pi];
        if (p.phase == Phase::Done || p.phase == Phase::Failed)
            return;
        if (p.inflight > 0)
            return;
        if (p.attempts >= opts_.max_point_attempts) {
            PointReply r;
            r.error = cause;
            r.message = "gave up after " + std::to_string(p.attempts)
                        + " dispatch attempt(s); last: "
                        + std::string(serveErrorName(cause))
                        + (detail.empty() ? "" : " (" + detail + ")");
            failLocked(pi, std::move(r));
            return;
        }
        p.phase = Phase::Pending;
        p.shadowed = false;
        pushElsewhere(pi, wi);
    }

    /** Reassign `pi` to the non-quarantined worker with the smallest
     * backlog, preferring anyone but `wi`. */
    void
    pushElsewhere(std::size_t pi, std::size_t wi) THERMCTL_REQUIRES(mutex_)
    {
        std::size_t best = wi;
        std::size_t depth = std::numeric_limits<std::size_t>::max();
        for (std::size_t j = 0; j < workers_.size(); ++j) {
            if (j == wi
                || workers_[j].health == WorkerHealth::Quarantined) {
                continue;
            }
            if (workers_[j].backlog.size() < depth) {
                best = j;
                depth = workers_[j].backlog.size();
            }
        }
        workers_[best].backlog.push_back(pi);
    }

    void
    settleOne() THERMCTL_REQUIRES(mutex_)
    {
        unsettled_--;
    }

    // --------------------------------------------------- health ladder

    void
    noteSuccess(std::size_t wi) THERMCTL_REQUIRES(mutex_)
    {
        WorkerState &w = workers_[wi];
        w.consecutive_failures = 0;
        if (w.health == WorkerHealth::Unhealthy)
            w.health = WorkerHealth::Healthy;
        // Quarantined stays quarantined: only the prober re-admits,
        // after the window passed.
    }

    void
    noteFailure(std::size_t wi) THERMCTL_REQUIRES(mutex_)
    {
        WorkerState &w = workers_[wi];
        w.consecutive_failures++;
        if (w.health == WorkerHealth::Healthy
            && w.consecutive_failures >= opts_.unhealthy_after) {
            w.health = WorkerHealth::Unhealthy;
        } else if (w.health == WorkerHealth::Unhealthy
                   && w.consecutive_failures
                          >= 2 * opts_.unhealthy_after) {
            quarantineLocked(wi);
        }
    }

    void
    quarantineLocked(std::size_t wi) THERMCTL_REQUIRES(mutex_)
    {
        WorkerState &w = workers_[wi];
        w.quarantined_until =
            Clock::now() + std::chrono::milliseconds(opts_.quarantine_ms);
        if (w.health == WorkerHealth::Quarantined)
            return; // extend the window only
        w.health = WorkerHealth::Quarantined;
        w.stats.quarantines++;
        // Redistribute the backlog so queued points do not wait out the
        // quarantine window. If every other worker is also quarantined
        // the points stay here — stealing ignores health, so they are
        // picked up the moment anyone recovers.
        std::deque<std::size_t> backlog = std::move(w.backlog);
        w.backlog.clear();
        for (const std::size_t pi : backlog)
            pushElsewhere(pi, wi);
    }

    // ------------------------------------------------------ prober side

    void
    proberLoop() THERMCTL_EXCLUDES(mutex_)
    {
        std::vector<ServeClient> probes;
        for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
            probes.push_back(workerClient(wi));
            probes.back().setRecvTimeout(
                std::max(1000u, opts_.probe_interval_ms));
        }
        for (;;) {
            for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
                {
                    MutexLock lock(mutex_);
                    if (unsettled_ == 0 || !mismatch_.empty())
                        return;
                }
                bool ok = false;
                PingReply pong;
                std::string error;
                try {
                    ok = probes[wi].ping(pong, error);
                } catch (const FatalError &) {
                    ok = false; // foreign protocol: permanent failure
                }
                if (ok && pong.version != kWireVersion)
                    ok = false;
                MutexLock lock(mutex_);
                WorkerState &w = workers_[wi];
                if (!ok) {
                    noteFailure(wi);
                } else if (pong.draining) {
                    quarantineLocked(wi);
                } else if (w.health == WorkerHealth::Quarantined) {
                    if (Clock::now() >= w.quarantined_until) {
                        // Served the window AND answers probes again:
                        // re-admit and wake waiting agents.
                        w.health = WorkerHealth::Healthy;
                        w.consecutive_failures = 0;
                        cv_.notify_all();
                    }
                } else {
                    noteSuccess(wi);
                }
            }
            // Sleep out the interval, but wake at settlement: agents
            // notify after every settle, and only the end of the run
            // (or a mismatch) cuts the wait short.
            MutexLock lock(mutex_);
            const Clock::time_point wake =
                Clock::now()
                + std::chrono::milliseconds(opts_.probe_interval_ms);
            while (unsettled_ != 0 && mismatch_.empty()) {
                if (!cv_.waitUntil(mutex_, wake))
                    break;
            }
        }
    }

    const CoordinatorOptions &opts_;
    Mutex mutex_;
    CondVar cv_;
    std::vector<PointState> points_ THERMCTL_GUARDED_BY(mutex_);
    std::vector<WorkerState> workers_ THERMCTL_GUARDED_BY(mutex_);
    std::size_t unsettled_ THERMCTL_GUARDED_BY(mutex_) = 0;
    std::string mismatch_ THERMCTL_GUARDED_BY(mutex_);
};

} // namespace

CoordinatorReport
Coordinator::run(const std::vector<PointSpec> &grid)
{
    opts_.validate();

    // Resolve every grid point to its content address up front.
    // Duplicate digests coalesce onto one representative dispatch —
    // the coordinator-level twin of the scheduler's single-flight table
    // and the cache's content addressing, keyed identically.
    std::vector<PointState> reps;
    std::vector<std::size_t> rep_of(grid.size());
    std::unordered_map<std::uint64_t, std::size_t> by_digest;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        try {
            const SweepPoint pt = resolvePoint(grid[i], opts_.base);
            const auto it = by_digest.find(pt.digest);
            if (it != by_digest.end()) {
                rep_of[i] = it->second;
                continue;
            }
            PointState st;
            st.spec = grid[i];
            st.key = pt.key;
            st.digest = pt.digest;
            by_digest.emplace(pt.digest, reps.size());
            rep_of[i] = reps.size();
            reps.push_back(std::move(st));
        } catch (const FatalError &e) {
            // Unknown benchmark/policy names are a per-point BadRequest
            // (matching the server's verdict), not a run abort.
            PointState st;
            st.spec = grid[i];
            st.key = grid[i].benchmark + "/" + grid[i].policy;
            st.phase = Phase::Failed;
            st.reply.error = ServeError::BadRequest;
            st.reply.message = e.what();
            rep_of[i] = reps.size();
            reps.push_back(std::move(st));
        }
    }

    Flock flock(opts_, std::move(reps));
    flock.runAll();

    CoordinatorReport report;
    report.outcomes.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const PointState &st = flock.point(rep_of[i]);
        CoordPointOutcome o;
        o.spec = grid[i];
        o.key = st.key;
        o.digest = st.digest;
        o.reply = st.reply;
        o.attempts = st.attempts;
        o.worker = st.worker;
        report.outcomes.push_back(std::move(o));
    }
    report.workers = flock.workerStats();
    return report;
}

} // namespace thermctl::serve

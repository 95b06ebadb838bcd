/**
 * @file
 * thermctl-flock: fault-tolerant distributed sweep sharding.
 *
 * A Coordinator spreads a benchmarks x policies grid across several
 * thermctl_serve workers over the existing wire protocol and keeps the
 * run correct while workers crash, stall, restart, or go slow. The
 * design leans entirely on substrates that already exist:
 *
 *  - *Idempotent dispatch.* Every point's identity is its
 *    sweepConfigDigest (the same content address the cache and the
 *    scheduler's single-flight table use), so dispatching a point twice
 *    is harmless. At-least-once dispatch becomes exactly-once-in-effect
 *    at collection: the first completion of a digest wins, and any
 *    duplicate completion is byte-compared against it — a mismatch
 *    means a worker is not deterministic and aborts the run.
 *
 *  - *Leases.* Each dispatched point carries a lease: the request's
 *    deadline_ms and the connection's receive timeout are both the
 *    lease duration. A worker that goes silent mid-point turns into a
 *    typed, lease-sized failure, never an indefinite hang, and the
 *    point is reassigned elsewhere.
 *
 *  - *Typed failure policy.* Transport: reconnect and reassign.
 *    Stalled / lease expiry: reassign to a different worker. Overloaded:
 *    back off per BackoffPolicy, honoring the server's retry_after_ms
 *    hint up to the policy's 2 s cap. Draining:
 *    quarantine the worker and reassign. BadRequest / Internal /
 *    VersionMismatch: terminal for the point (retrying cannot help).
 *
 *  - *Health lifecycle.* A prober thread pings every worker (the wire
 *    v4 Ping frame: version echo, queue depth, stalled count) on a
 *    fixed cadence. Consecutive failures demote a worker
 *    healthy -> unhealthy -> quarantined; a quarantined worker's backlog
 *    is redistributed and it is re-admitted only after its quarantine
 *    window passed and a probe succeeds.
 *
 *  - *Work stealing.* The grid is sharded round-robin up front; an idle
 *    agent first drains its own backlog, then steals from the largest
 *    remaining backlog, and at the very end of the grid shadow-dispatches
 *    points still in flight on slower workers (at most one shadow per
 *    point, never on the same worker) — the finish line is never gated
 *    on the slowest worker alone, and shadows exercise the duplicate
 *    byte-compare path for real.
 *
 * Partial results are explicit, never silent: the report lists every
 * point outcome in grid order plus a manifest of missing keys, and
 * callers choose between require-complete and best-effort semantics.
 *
 * See DESIGN.md §17 for the cluster failure model.
 */

#ifndef THERMCTL_SERVE_COORDINATOR_HH
#define THERMCTL_SERVE_COORDINATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/config.hh"

namespace thermctl::serve
{

/** Coordinator knobs; validate() is fatal on nonsense. */
struct CoordinatorOptions
{
    /** Worker endpoints ("unix:PATH", "tcp:HOST:PORT", bare path). */
    std::vector<std::string> endpoints;

    /** Base config the workers are assumed to run (digest resolution). */
    SimConfig base;

    /**
     * Lease per dispatched point: the request's server-side deadline
     * and the connection's receive timeout. A worker silent past the
     * lease loses the point to reassignment.
     */
    unsigned lease_ms = 20000;

    /** Bound on each connect attempt to a worker. */
    unsigned connect_timeout_ms = 1000;

    /** Health probe cadence (Ping frames). */
    unsigned probe_interval_ms = 200;

    /** Quarantine window before a failed worker may be re-admitted. */
    unsigned quarantine_ms = 1000;

    /** Consecutive failures before healthy -> unhealthy (then x2 ->
     * quarantined). */
    unsigned unhealthy_after = 2;

    /** Dispatch attempts per point before it is failed outright. */
    unsigned max_point_attempts = 8;

    /** Jitter seed for per-agent overload backoff (replayable). */
    std::uint64_t seed = 1;

    void validate() const;
};

/** Worker lifecycle state (see the prober's escalation rules). */
enum class WorkerHealth : std::uint8_t
{
    Healthy = 0,
    Unhealthy = 1,   ///< consecutive failures; still dispatching
    Quarantined = 2, ///< no dispatch until the window passes + probe ok
};

/** @return printable health name ("healthy", ...). */
const char *workerHealthName(WorkerHealth h);

/** Per-worker counters for the final report. */
struct CoordWorkerStats
{
    std::string endpoint;
    std::uint64_t dispatched = 0; ///< points sent (incl. re-dispatches)
    std::uint64_t completed = 0;  ///< successful completions collected
    std::uint64_t stolen = 0;     ///< points taken from another backlog
    std::uint64_t shadowed = 0;   ///< speculative end-of-grid dispatches
    std::uint64_t transport_failures = 0;
    std::uint64_t lease_expiries = 0; ///< silent past the lease
    std::uint64_t stalls = 0;         ///< typed Stalled/DeadlineExceeded
    std::uint64_t overloads = 0;
    std::uint64_t quarantines = 0; ///< times the worker was quarantined
    WorkerHealth health = WorkerHealth::Healthy; ///< at run end
};

/** Outcome of one grid point, in grid order. */
struct CoordPointOutcome
{
    PointSpec spec;
    std::string key;          ///< "bench/policy"
    std::uint64_t digest = 0; ///< content address (cache/coalesce key)
    PointReply reply;         ///< error == None iff the point completed
    unsigned attempts = 0;    ///< dispatches spent on this point
    std::string worker;       ///< endpoint that produced the result
};

/** Result of a coordinated run; partial results are explicit. */
struct CoordinatorReport
{
    std::vector<CoordPointOutcome> outcomes; ///< grid order
    std::vector<CoordWorkerStats> workers;

    /** @return true when every point completed. */
    [[nodiscard]] bool complete() const;

    /** Keys of points that did not complete (the missing manifest). */
    [[nodiscard]] std::vector<std::string> missingKeys() const;
};

class Coordinator
{
  public:
    explicit Coordinator(CoordinatorOptions opts);

    /**
     * Shard `grid` across the workers and run it to settlement: every
     * point either completed (exactly-once-in-effect) or carries a
     * typed failure in its outcome. Throws FatalError only for
     * correctness violations (duplicate completions that differ
     * byte-for-byte); worker failures never throw. A benchmarks x
     * policies grid comes from SweepRequest::points().
     */
    [[nodiscard]] CoordinatorReport run(const std::vector<PointSpec> &grid);

  private:
    CoordinatorOptions opts_;
};

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_COORDINATOR_HH

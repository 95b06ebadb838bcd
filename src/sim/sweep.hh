/**
 * @file
 * The sweep engine: declarative experiment grids, executed in parallel
 * with a content-addressed on-disk result cache.
 *
 * The paper's evaluation is a large cartesian grid — 18 workloads x 7+
 * DTM policies x ablation variants — and every table/figure binary used
 * to walk its slice of that grid serially, re-simulating the shared
 * no-DTM characterization runs each time. SweepSpec describes a grid
 * declaratively; SweepEngine executes it on the parallelFor pool
 * (common/parallel.hh) and memoizes each point on disk keyed by a
 * digest of the fully resolved configuration, so results are reused
 * across binaries and across invocations.
 *
 * Guarantees:
 *  - Deterministic results: the result vector is ordered by grid
 *    position regardless of scheduling, and each point's simulation is
 *    a pure function of its resolved SimConfig + RunProtocol, so runs
 *    are bit-identical across jobs=1/jobs=N and cold/warm cache.
 *  - Stable identity: every point carries a human-readable key
 *    ("workload/policy[/variant]").
 *  - Safe caching: cache entries are addressed by
 *    sweepConfigDigest() — a canonical hash of every configuration
 *    field plus a code-version salt — and validated on load; corrupt
 *    or mismatched entries degrade to cache misses.
 *
 * See DESIGN.md §9 ("thermctl-sweep") for the grid model, the cache-key
 * derivation, and the threading model.
 */

#ifndef THERMCTL_SIM_SWEEP_HH
#define THERMCTL_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/experiment.hh"

namespace thermctl
{

/** One fully resolved grid point. */
struct SweepPoint
{
    /** Stable identity: "workload/policy" or "workload/policy/variant". */
    std::string key;

    /** Position in the grid (results are returned in this order). */
    std::size_t index = 0;

    /** The fully resolved configuration this point simulates. */
    SimConfig config;
};

/** A named configuration override forming the third grid axis. */
struct SweepVariant
{
    std::string name;
    std::function<void(SimConfig &)> apply;
};

/** @return the canonical point key for a workload/policy/variant triple. */
std::string sweepKey(std::string_view workload, std::string_view policy,
                     std::string_view variant = {});

/**
 * Declarative cartesian grid: workloads x policies x config variants
 * under one run protocol and base configuration. Empty axes default to
 * a single neutral element (the base workload, a no-DTM policy, the
 * identity variant), so a spec describes anything from a single run to
 * the paper's full evaluation grid.
 */
class SweepSpec
{
  public:
    SweepSpec &protocol(const RunProtocol &proto);
    SweepSpec &base(const SimConfig &cfg);

    SweepSpec &workload(const WorkloadProfile &profile);
    SweepSpec &workloads(const std::vector<WorkloadProfile> &profiles);

    /**
     * Add a policy column. The label defaults to the policy kind's name
     * and must be unique within the spec — pass an explicit label when
     * sweeping parameters of one kind (e.g. "PI@111.2").
     */
    SweepSpec &policy(const DtmPolicySettings &policy,
                      std::string label = {});

    /** Add a named configuration-override variant (third axis). */
    SweepSpec &variant(std::string name,
                       std::function<void(SimConfig &)> apply);

    const RunProtocol &runProtocol() const { return proto_; }
    const SimConfig &baseConfig() const { return base_; }

    /** @return number of grid points (product of non-empty axes). */
    std::size_t size() const;

    /**
     * Resolve the grid: apply variant overrides to the base config,
     * install workload and policy, derive keys. Order is
     * workloads (outer) x policies x variants (inner), independent of
     * execution scheduling. Duplicate keys are a fatal configuration
     * error.
     */
    std::vector<SweepPoint> points() const;

  private:
    RunProtocol proto_{};
    SimConfig base_{};
    std::vector<WorkloadProfile> workloads_;
    std::vector<std::pair<DtmPolicySettings, std::string>> policies_;
    std::vector<SweepVariant> variants_;
};

/** One executed grid point with its provenance and cost. */
struct SweepOutcome
{
    SweepPoint point;
    RunResult result;
    double wall_seconds = 0.0; ///< time to produce (≈0 on a cache hit)
    bool cache_hit = false;
};

/** Results of one engine invocation, ordered by grid position. */
class SweepResults
{
  public:
    const std::vector<SweepOutcome> &outcomes() const { return outcomes_; }

    /** @return just the RunResults, in grid order. */
    std::vector<RunResult> results() const;

    /** @return the result for a point key, or nullptr. */
    const RunResult *find(std::string_view key) const;

    /** @return the result for a point key; fatal() when absent. */
    const RunResult &at(std::string_view key) const;

    /** Shorthand: at(sweepKey(workload, policy, variant)). */
    const RunResult &at(std::string_view workload, std::string_view policy,
                        std::string_view variant = {}) const;

    std::size_t size() const { return outcomes_.size(); }
    std::size_t cacheHits() const { return cache_hits_; }
    std::size_t simulated() const { return outcomes_.size() - cache_hits_; }

    /** @return wall time of the whole engine invocation, seconds. */
    double wallSeconds() const { return wall_seconds_; }

  private:
    friend class SweepEngine;
    std::vector<SweepOutcome> outcomes_;
    std::size_t cache_hits_ = 0;
    double wall_seconds_ = 0.0;
};

/** Execution knobs of the engine. */
struct SweepOptions
{
    /**
     * Most points run at once (the width of the parallelFor call);
     * 0 = defaultJobs() (THERMCTL_JOBS or all cores).
     */
    unsigned jobs = 0;

    /** Enable the content-addressed on-disk result cache. */
    bool use_cache = false;

    /** Cache directory; empty = defaultCacheDir(). */
    std::string cache_dir;
};

/**
 * Progress callbacks, invoked serialized (never concurrently) from the
 * threads running the points. on_run_start fires when a point begins resolving
 * (cache probe included); on_run_done fires with the outcome, its wall
 * time, and whether the cache served it.
 */
struct SweepTelemetry
{
    std::function<void(const SweepPoint &, std::size_t grid_size)>
        on_run_start;
    std::function<void(const SweepOutcome &, std::size_t grid_size)>
        on_run_done;
};

/**
 * Executes SweepSpecs on the parallelFor pool with optional
 * content-addressed result caching.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(const SweepOptions &opts = {});

    void setTelemetry(SweepTelemetry telemetry);

    /** Execute every grid point; results ordered by grid position. */
    SweepResults run(const SweepSpec &spec) const;

    const SweepOptions &options() const { return opts_; }

    /** @return how many points of a grid this size run at once. */
    unsigned effectiveJobs(std::size_t grid_size) const;

    /** @return THERMCTL_JOBS when set (>=1), else hardware_concurrency. */
    static unsigned defaultJobs();

    /**
     * @return THERMCTL_CACHE_DIR when set, else XDG_CACHE_HOME/thermctl,
     * else ~/.cache/thermctl.
     */
    static std::string defaultCacheDir();

    /**
     * @return the options of a command-line front end before any flag:
     * the cache on unless THERMCTL_NO_CACHE=1, default jobs and
     * directory.
     */
    static SweepOptions defaultOptions();

  private:
    SweepOptions opts_;
    SweepTelemetry telemetry_;
};

/**
 * Parse `arg` into `opts` when it is an engine flag: --jobs N (N >= 1),
 * --cache-dir PATH or --no-cache. `next` fetches the flag's value. Every
 * binary that runs a SweepEngine takes its engine flags here, so a bad
 * one fails with the same message everywhere.
 * @return false when `arg` is not an engine flag.
 * @throws FatalError on a malformed value.
 */
bool parseSweepFlag(const std::string &arg,
                    const std::function<std::string()> &next,
                    SweepOptions &opts);

/**
 * Canonical digest of a fully resolved run: every SimConfig field, the
 * run protocol, and the cache schema/code-version salt. This is the
 * cache key — two runs share a digest iff the simulator cannot
 * distinguish their configurations.
 */
[[nodiscard]] std::uint64_t sweepConfigDigest(const SimConfig &cfg,
                                              const RunProtocol &proto);

/**
 * Format version written as the first byte of serializeRunResult().
 * Bump on any layout change so old payloads (cache entries, wire
 * frames) are rejected with BadVersion instead of mis-decoded.
 */
inline constexpr std::uint8_t kRunResultFormatVersion = 2;

/** Typed decode outcome: old/foreign payloads fail loudly, not quietly. */
enum class RunResultDecodeStatus
{
    Ok,
    BadVersion, ///< leading version byte != kRunResultFormatVersion
    Malformed,  ///< truncated, trailing bytes, or checksum mismatch
};

/**
 * Exact binary serialization of a RunResult (cache payload and wire
 * format): a format-version byte, the field payload, and a trailing
 * FNV-1a checksum over everything before it, so bit corruption anywhere
 * in the buffer is detected rather than decoded into plausible garbage.
 */
[[nodiscard]] std::string serializeRunResult(const RunResult &result);

/**
 * Inverse of serializeRunResult.
 * `out` is unspecified on any status other than Ok.
 */
[[nodiscard]] RunResultDecodeStatus
deserializeRunResult(std::string_view buffer, RunResult &out);

/**
 * Probe the on-disk result cache for a digest, validating the entry
 * (magic, stored digest, payload version + checksum).
 * @return true and fill `out` only for a fully valid entry.
 */
[[nodiscard]] bool sweepCacheLookup(const std::string &cache_dir,
                                    std::uint64_t digest, RunResult &out);

/** What a cache recovery sweep found (and removed). */
struct CacheRecoveryStats
{
    std::uint64_t scanned = 0;     ///< *.run entries examined
    std::uint64_t quarantined = 0; ///< invalid entries moved to *.corrupt
    std::uint64_t tmp_removed = 0; ///< abandoned *.tmp.* writer files
};

/**
 * Crash-recovery sweep over a cache directory: validates every entry
 * against the digest encoded in its filename (magic, stored digest,
 * payload version + checksum), quarantines invalid ones as *.corrupt,
 * and removes temp files abandoned by writers that died mid-publish.
 * Safe to run against a live cache — concurrent writers publish by
 * rename, and a valid entry is never touched.
 */
CacheRecoveryStats sweepCacheRecover(const std::string &cache_dir);

} // namespace thermctl

#endif // THERMCTL_SIM_SWEEP_HH

/**
 * @file
 * Shared pieces of thermctl_perf, the benchmark program: clocks, order
 * statistics, the result record every workload fills, the in-memory span
 * tracer, and the golden-digest table.
 *
 * thermctl_perf measures the thermctl libraries from outside, by timing
 * calls into their public API; nothing here reaches into a library's
 * internals.
 */

#ifndef THERMCTL_PERF_PERF_UTIL_HH
#define THERMCTL_PERF_PERF_UTIL_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hh"

namespace thermctl::perf
{

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** @return nanoseconds on the steady clock (span timestamps). */
std::int64_t nowNs();

/**
 * Cheap cycle-counter timestamps for per-call timing inside the
 * simulated cycle loop, where two steady_clock reads per call would cost
 * more than the calls measured. Ticks are converted to nanoseconds with
 * a ratio calibrated against the steady clock over the same interval.
 */
std::uint64_t ticks();

/** Linear-interpolated quantile of an unsorted sample; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** `v` with all its digits (%.17g). */
std::string formatNumber(double v);

/** Write `ms` as one JSON object {"name": {"value": v, "unit": u}, ...}. */
void writeMetricsJson(std::ostream &out, const std::vector<Metric> &ms);

/** Everything one workload run reports. */
struct Report
{
    /** End-to-end metrics (untraced runs). */
    std::vector<Metric> e2e;

    /** The per-layer set every workload reports (traced runs). */
    std::vector<Metric> layers;

    /**
     * Workload-specific layer numbers and diagnostics: printed and
     * written to the trace file, not part of the result object.
     */
    std::vector<Metric> extra;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few messages

    /** FNV digest of the workload's fixed result set (golden check). */
    HashStream digest;
    bool has_digest = false;

    void add(std::vector<Metric> &to, std::string name, double value,
             std::string unit)
    {
        to.push_back({std::move(name), value, std::move(unit)});
    }

    /** Fold one serialized RunResult into the golden digest. */
    void digestResult(std::string_view bytes)
    {
        digest.bytes(bytes.data(), bytes.size());
        has_digest = true;
    }

    /** Count one attempted check; a false `ok` is a failed op. */
    void check(bool ok, const std::string &what);
};

/**
 * Cycles after a simulator's cold start that run in the cheap regime of
 * an empty pipeline and cold caches, at about 1.6x the steady-state rate
 * (perf/README.md). Each workload reports the share of its simulated
 * cycles, and in a traced run of its host time, that falls here.
 */
inline constexpr std::uint64_t kColdStartCycles = 20000;

/** Run-wide settings every workload reads. */
struct RunContext
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    unsigned nproc = 1;
    std::string out_dir = "build-perf";

    /** Divisor applied to every point's cycle counts (20 in smoke). */
    std::uint64_t cycleDiv() const { return smoke ? 20 : 1; }
};

/** In-memory span recorder; written out once at exit. */
class Tracer
{
  public:
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    /** Open a span; @return its index (the parent handle of children). */
    std::size_t begin(std::string name, std::uint64_t id,
                      std::size_t parent = kNoParent);
    void end(std::size_t span);

    /** Record a span whose endpoints were measured elsewhere. */
    std::size_t record(std::string name, std::uint64_t id,
                       std::size_t parent, std::int64_t start_ns,
                       std::int64_t end_ns);

    /** Per-point counters (count + total ns per layer), kept as-is. */
    void counters(std::string name, std::uint64_t id,
                  std::vector<Metric> values);

    /** Write every span, counter set and `summary` metric as JSON. */
    void write(const std::string &path, const std::string &workload,
               const std::vector<Metric> &summary) const;

  private:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::size_t parent = kNoParent;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };
    struct Counters
    {
        std::string name;
        std::uint64_t id = 0;
        std::vector<Metric> values;
    };
    std::vector<Span> spans_;
    std::vector<Counters> counters_;
};

/** RAII span; a no-op without a tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, std::uint64_t id,
               std::size_t parent = Tracer::kNoParent)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(std::move(name), id, parent)
                        : Tracer::kNoParent)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::size_t index_;
};

/**
 * Golden digests: lines "<full|smoke> <workload> <seed> <16 hex>" in a
 * text file. Missing file or entry means "no golden for this run".
 */
bool lookupGolden(const std::string &path, std::string_view mode,
                  std::string_view workload, std::uint64_t seed,
                  std::uint64_t &out);

/** @return peak resident set size of this process, MiB. */
double peakRssMiB();

/** @return CPUs this process may run on (what nproc prints). */
unsigned usableCpus();

/**
 * Run `setup` `reps` times and return the median wall time, seconds.
 * The last repetition's state is what the timed phase uses, so callers
 * tear down between repetitions inside `setup` themselves.
 */
double medianSetupSeconds(unsigned reps, const std::function<void()> &setup);

} // namespace thermctl::perf

#endif // THERMCTL_PERF_PERF_UTIL_HH

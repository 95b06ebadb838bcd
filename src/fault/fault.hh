/**
 * @file
 * thermctl-faultline: deterministic fault injection.
 *
 * A FaultPlan is a seeded set of rules, each bound to a named fault
 * *site* in production code (e.g. "serve.sock.write"). Sites are tapped
 * through the THERMCTL_FAULT_POINT macro, which is zero-cost when the
 * build option THERMCTL_FAULTS is OFF (the macro expands to an empty
 * constexpr decision and every branch on it folds away) and a single
 * relaxed atomic load when compiled in but no plan is armed.
 *
 * Determinism: each rule owns an Rng forked from the plan seed and the
 * site-name hash, and decisions depend only on (seed, site, per-rule
 * hit index). Replaying the same plan therefore reproduces the same
 * per-site fault sequence regardless of thread interleaving, which is
 * what makes chaos-soak failures replayable from a single seed.
 *
 * Plan grammar (semicolon-separated clauses):
 *
 *     seed=N
 *     <site>=<kind>[@prob][:key=value]...
 *
 * kinds:  abort  short  eintr  stall  torn
 * keys:   every=N  (fire on every Nth hit)
 *         after=N  (ignore the first N hits)
 *         max=N    (fire at most N times)
 *         ms=N     (stall duration, milliseconds)
 *
 * Example:
 *
 *     seed=42;serve.sock.write=short@0.25;sched.batch=stall@0.2:ms=50
 */

#ifndef THERMCTL_FAULT_FAULT_HH
#define THERMCTL_FAULT_FAULT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hh"
#include "common/random.hh"
#include "common/thread_annotations.hh"

namespace thermctl::fault
{

/** What a fired fault point should do to the surrounding code. */
enum class FaultKind : std::uint8_t {
    None = 0,  ///< nothing fired
    Abort = 1, ///< fail the operation (connection reset, lost file, ...)
    ShortIo = 2, ///< complete only part of the requested I/O
    Eintr = 3,   ///< behave as if interrupted by a signal
    Stall = 4,   ///< sleep for stall_ms before proceeding
    Torn = 5,    ///< publish a truncated/partial artifact
};

/** @return the grammar keyword for `kind` ("abort", "short", ...). */
std::string_view faultKindName(FaultKind kind);

/**
 * The verdict a fault point receives. Default-constructed means "no
 * fault"; the inline accessors let call sites branch cheaply and read
 * naturally: `if (decision.abort()) ...`.
 */
struct FaultDecision
{
    FaultKind kind = FaultKind::None;
    std::uint32_t stall_ms = 0;

    constexpr bool abort() const { return kind == FaultKind::Abort; }
    constexpr bool shortIo() const { return kind == FaultKind::ShortIo; }
    constexpr bool eintr() const { return kind == FaultKind::Eintr; }
    constexpr bool stall() const { return kind == FaultKind::Stall; }
    constexpr bool torn() const { return kind == FaultKind::Torn; }
};

/** One clause of a plan: when site is hit, maybe inject kind. */
struct FaultRule
{
    std::string site;
    FaultKind kind = FaultKind::None;
    double probability = 1.0;   ///< chance of firing once the gates pass
    std::uint64_t every = 0;    ///< fire only on every Nth hit (0 = all)
    std::uint64_t after = 0;    ///< skip the first N hits
    std::uint64_t max_fires = 0; ///< stop after N fires (0 = unlimited)
    std::uint32_t stall_ms = 10; ///< Stall duration
};

/** A seeded, replayable set of fault rules. */
struct FaultPlan
{
    std::uint64_t seed = 1;
    std::vector<FaultRule> rules;

    /**
     * Parse the grammar above; calls fatal() on a malformed spec (the
     * CLI entry point). tryParse() is the non-throwing variant.
     */
    static FaultPlan parse(std::string_view spec);
    static bool tryParse(std::string_view spec, FaultPlan &out,
                         std::string &error);

    /** @return the plan re-rendered in grammar form (for logs). */
    std::string describe() const;
};

/**
 * Process-wide fault injector. Disarmed by default; arm() installs a
 * plan, disarm() removes it. probe() is the hot path: one relaxed
 * atomic load when disarmed, a short mutex-guarded rule scan when
 * armed (chaos builds only care about determinism, not speed).
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    void arm(const FaultPlan &plan);
    void disarm();
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /** Hot-path entry used by THERMCTL_FAULT_POINT. */
    FaultDecision
    probe(std::string_view site)
    {
        if (!armed())
            return FaultDecision{};
        return decide(site);
    }

    /** Number of faults fired since the last arm(). */
    std::uint64_t firedCount() const;

  private:
    FaultInjector() = default;

    struct RuleState
    {
        FaultRule rule;
        Rng rng{1};
        std::uint64_t hits = 0;
        std::uint64_t fires = 0;
    };

    FaultDecision decide(std::string_view site) THERMCTL_EXCLUDES(mutex_);

    std::atomic<bool> armed_{false};
    mutable Mutex mutex_;
    std::vector<RuleState> states_ THERMCTL_GUARDED_BY(mutex_);
};

} // namespace thermctl::fault

/**
 * Production hook. `site` must be a string literal naming the fault
 * point; the macro yields a FaultDecision. With THERMCTL_FAULTS=OFF
 * this is a constexpr empty decision, so `if (THERMCTL_FAULT_POINT(
 * "x").abort())` compiles to nothing at all.
 */
#if defined(THERMCTL_FAULTS_ENABLED) && THERMCTL_FAULTS_ENABLED
#define THERMCTL_FAULT_POINT(site)                                       \
    (::thermctl::fault::FaultInjector::instance().probe(site))
#else
#define THERMCTL_FAULT_POINT(site) (::thermctl::fault::FaultDecision{})
#endif

#endif // THERMCTL_FAULT_FAULT_HH

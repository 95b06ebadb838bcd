#include "fault/fault.hh"

#include <sstream>

#include "common/flags.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace thermctl::fault
{
namespace
{

/** All grammar keywords, in enum order. */
constexpr std::string_view kKindNames[] = {"none", "abort", "short",
                                           "eintr", "stall", "torn"};

bool
parseKind(std::string_view word, FaultKind &out)
{
    for (std::size_t i = 1; i < std::size(kKindNames); ++i) {
        if (word == kKindNames[i]) {
            out = static_cast<FaultKind>(i);
            return true;
        }
    }
    return false;
}

bool
parseU64(std::string_view word, std::uint64_t &out)
{
    if (word.empty())
        return false;
    std::uint64_t value = 0;
    for (char c : word) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

bool
parseProbability(std::string_view word, double &out)
{
    double value = 0.0;
    try {
        value = parseFlag<double>("probability", word);
    } catch (const FatalError &) {
        return false;
    }
    if (value < 0.0 || value > 1.0)
        return false;
    out = value;
    return true;
}

std::vector<std::string_view>
split(std::string_view text, char sep)
{
    std::vector<std::string_view> parts;
    while (true) {
        std::size_t pos = text.find(sep);
        parts.push_back(text.substr(0, pos));
        if (pos == std::string_view::npos)
            break;
        text.remove_prefix(pos + 1);
    }
    return parts;
}

/**
 * Parse one rule clause: site=kind[@prob][:key=value]... The "@prob"
 * suffix may appear on the kind word or on any option word.
 */
bool
parseRule(std::string_view clause, FaultRule &rule, std::string &error)
{
    std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0) {
        error = "expected site=kind in '" + std::string(clause) + "'";
        return false;
    }
    rule.site = std::string(clause.substr(0, eq));
    std::string_view rest = clause.substr(eq + 1);

    bool first = true;
    for (std::string_view word : split(rest, ':')) {
        std::size_t at = word.find('@');
        if (at != std::string_view::npos) {
            if (!parseProbability(word.substr(at + 1), rule.probability)) {
                error = "bad probability in '" + std::string(word)
                        + "' (want @p with p in [0,1])";
                return false;
            }
            word = word.substr(0, at);
        }
        if (first) {
            first = false;
            if (!parseKind(word, rule.kind)) {
                error = "unknown fault kind '" + std::string(word)
                        + "' (want abort|short|eintr|stall|torn)";
                return false;
            }
            continue;
        }
        if (word.empty())
            continue; // a bare "@p" option word
        std::size_t opt_eq = word.find('=');
        if (opt_eq == std::string_view::npos) {
            error = "expected key=value option, got '" + std::string(word)
                    + "'";
            return false;
        }
        std::string_view key = word.substr(0, opt_eq);
        std::string_view value = word.substr(opt_eq + 1);
        std::uint64_t number = 0;
        if (!parseU64(value, number)) {
            error = "bad integer in '" + std::string(word) + "'";
            return false;
        }
        if (key == "every") {
            rule.every = number;
        } else if (key == "after") {
            rule.after = number;
        } else if (key == "max") {
            rule.max_fires = number;
        } else if (key == "ms") {
            rule.stall_ms = static_cast<std::uint32_t>(number);
        } else {
            error = "unknown option '" + std::string(key)
                    + "' (want every|after|max|ms)";
            return false;
        }
    }
    return true;
}

} // namespace

std::string_view
faultKindName(FaultKind kind)
{
    auto index = static_cast<std::size_t>(kind);
    if (index >= std::size(kKindNames))
        return "invalid";
    return kKindNames[index];
}

bool
FaultPlan::tryParse(std::string_view spec, FaultPlan &out,
                    std::string &error)
{
    FaultPlan plan;
    for (std::string_view clause : split(spec, ';')) {
        if (clause.empty())
            continue;
        if (clause.substr(0, 5) == "seed=") {
            if (!parseU64(clause.substr(5), plan.seed)) {
                error = "bad seed in '" + std::string(clause) + "'";
                return false;
            }
            continue;
        }
        FaultRule rule;
        if (!parseRule(clause, rule, error))
            return false;
        plan.rules.push_back(std::move(rule));
    }
    if (plan.rules.empty()) {
        error = "fault plan has no rules";
        return false;
    }
    out = std::move(plan);
    return true;
}

FaultPlan
FaultPlan::parse(std::string_view spec)
{
    FaultPlan plan;
    std::string error;
    if (!tryParse(spec, plan, error))
        fatal("--fault-plan: ", error);
    return plan;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << "seed=" << seed;
    for (const FaultRule &rule : rules) {
        os << ';' << rule.site << '=' << faultKindName(rule.kind);
        if (rule.probability != 1.0)
            os << '@' << rule.probability;
        if (rule.every)
            os << ":every=" << rule.every;
        if (rule.after)
            os << ":after=" << rule.after;
        if (rule.max_fires)
            os << ":max=" << rule.max_fires;
        if (rule.kind == FaultKind::Stall)
            os << ":ms=" << rule.stall_ms;
    }
    return os.str();
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    MutexLock lock(mutex_);
    states_.clear();
    fired_.clear();
    states_.reserve(plan.rules.size());
    for (const FaultRule &rule : plan.rules) {
        RuleState state;
        state.rule = rule;
        // Each rule draws from an independent stream derived from the
        // plan seed and the site name, so decisions depend only on
        // (seed, site, hit index) — never on thread interleaving.
        state.rng = Rng(plan.seed).fork(hashString(rule.site));
        states_.push_back(std::move(state));
    }
    armed_.store(true, std::memory_order_release);
}

void
FaultInjector::disarm()
{
    armed_.store(false, std::memory_order_release);
    MutexLock lock(mutex_);
    states_.clear();
}

FaultDecision
FaultInjector::decide(std::string_view site)
{
    MutexLock lock(mutex_);
    for (RuleState &state : states_) {
        if (state.rule.site != site)
            continue;
        std::uint64_t hit = ++state.hits;
        if (hit <= state.rule.after)
            continue;
        if (state.rule.every && (hit - state.rule.after) % state.rule.every)
            continue;
        if (state.rule.max_fires && state.fires >= state.rule.max_fires)
            continue;
        // The stream advances once per gate-passing hit, so the
        // decision is a pure function of (seed, site, hit index).
        bool fire = state.rng.chance(state.rule.probability);
        if (!fire)
            continue;
        ++state.fires;
        fired_.push_back({std::string(site), hit, state.rule.kind});
        FaultDecision decision;
        decision.kind = state.rule.kind;
        decision.stall_ms = state.rule.stall_ms;
        return decision;
    }
    return FaultDecision{};
}

std::vector<FiredFault>
FaultInjector::firedLog() const
{
    MutexLock lock(mutex_);
    return fired_;
}

std::uint64_t
FaultInjector::firedCount() const
{
    MutexLock lock(mutex_);
    return fired_.size();
}

} // namespace thermctl::fault

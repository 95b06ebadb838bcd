/**
 * @file
 * thermctl-lint core: a lightweight C++ tokenizer and the project rules
 * it enforces over the thermctl source tree.
 *
 * The linter checks the contracts the codebase *claims* to follow but
 * that no compiler enforces:
 *
 *   raw-double-param            public thermal/power/control/dtm headers
 *                               take units.hh strong types (Celsius,
 *                               Watts, KelvinPerWatt, ...) rather than
 *                               raw `double` temperature/power/
 *                               resistance parameters
 *   using-namespace-header      no `using namespace` at header scope
 *   reader-bounds               serve/ and serialize code that decodes
 *                               with ByteReader checks ok()/atEnd()
 *                               (the bounds idiom), never trusts
 *                               lengths blindly
 *   naked-mutex                 no std::mutex / std::lock_guard /
 *                               std::condition_variable outside the
 *                               annotated wrappers in common/mutex.hh
 *   missing-thread-annotations  every file spawning std::thread
 *                               includes the annotation headers
 *                               (common/mutex.hh or
 *                               common/thread_annotations.hh)
 *   fault-point-scope           THERMCTL_FAULT_POINT probes appear only
 *                               under src/ — tests and benches arm a
 *                               FaultPlan against existing probes
 *                               rather than defining their own
 *   raw-number-parse            no std::sto* / strto* / ato* outside
 *                               common/flags.hh — parseFlag() takes
 *                               the whole text or nothing
 *
 * Deliberately libclang-free: a token scan with comment/string
 * stripping is robust enough for these rules, keeps the tool a
 * dependency-free part of the ordinary build, and runs in milliseconds
 * over the whole tree (scripts/check.sh stage "lint").
 *
 * Grandfathered exceptions live in an allowlist file (one
 * `rule path-suffix justification` entry per line); see
 * Allowlist::parse. DESIGN.md §11 documents the workflow.
 */

#ifndef THERMCTL_TOOLS_LINT_LINT_HH
#define THERMCTL_TOOLS_LINT_LINT_HH

#include <string>
#include <string_view>
#include <vector>

namespace thermctl::lint
{

/** One lexed token (comments and whitespace are dropped). */
struct Token
{
    enum class Kind
    {
        Identifier, ///< [A-Za-z_][A-Za-z0-9_]*
        Number,
        String, ///< text is the literal's *contents* (quotes stripped)
        Char,
        Punct, ///< single punctuation char, except "::" kept whole
    };

    Kind kind = Kind::Punct;
    std::string text;
    int line = 1; ///< 1-based line of the token's first character
};

/**
 * Lex C++ source into tokens: strips // and block comments, collapses
 * string/char literals (escape- and raw-string-aware) into single
 * tokens, and keeps "::" as one punctuation token. Never fails —
 * unterminated constructs simply end at EOF.
 */
std::vector<Token> tokenize(std::string_view src);

/** A `#include` seen in a file. */
struct Include
{
    std::string path; ///< header as written, without quotes/brackets
    bool system = false; ///< <...> rather than "..."
    int line = 1;
};

/** Scan raw source for #include directives (tokenizer-independent). */
std::vector<Include> scanIncludes(std::string_view src);

/** One rule violation. */
struct Finding
{
    std::string file; ///< path as given to the linter
    int line = 1;
    std::string rule;    ///< stable rule id, e.g. "naked-mutex"
    std::string message; ///< pointed, single-line diagnostic
};

/** Grandfathered exceptions: `rule path-suffix justification...`. */
class Allowlist
{
  public:
    /**
     * Parse the allowlist text. Lines are `rule path-suffix
     * [justification...]`; blank lines and `#` comments are ignored.
     * @return false and set `error` on a malformed line (missing
     * path-suffix, unknown rule id).
     */
    bool parse(std::string_view text, std::string &error);

    /**
     * parse() validating rule ids against `valid_ids` instead of the
     * linter's own ruleIds() — the analyzer (tools/analyze) reuses this
     * baseline mechanism with its own rule vocabulary.
     */
    bool parse(std::string_view text,
               const std::vector<std::string> &valid_ids,
               std::string &error);

    /** @return true when `f` matches a grandfathered entry. */
    bool allows(const Finding &f) const;

    /** Entries never matched by any finding (likely stale). */
    std::vector<std::string> unusedEntries() const;

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::string rule;
        std::string path_suffix;
        mutable bool used = false;
    };
    std::vector<Entry> entries_;
};

/** @return every known rule id (for allowlist validation / --list). */
const std::vector<std::string> &ruleIds();

/**
 * Lint one file's contents. `path` selects which rules apply (header
 * vs. implementation, directory under src/); use the repo-relative
 * path so allowlist suffixes are stable.
 */
std::vector<Finding> lintFile(const std::string &path,
                              std::string_view content);

/** Render findings as `file:line: [rule] message` lines. */
std::string formatText(const std::vector<Finding> &findings);

/** Render findings as a machine-readable JSON array. */
std::string formatJson(const std::vector<Finding> &findings);

} // namespace thermctl::lint

#endif // THERMCTL_TOOLS_LINT_LINT_HH

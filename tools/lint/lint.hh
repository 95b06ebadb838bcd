/**
 * @file
 * A lightweight C++ tokenizer and the per-file project rules that
 * thermctl_analyze (tools/analyze) runs over every file it models.
 *
 * The rules check the contracts the codebase *claims* to follow but
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
 * over the whole tree (scripts/check.sh stage "analyze"). DESIGN.md
 * §11 documents the rules.
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
    std::string file; ///< path as given to the analyzer
    int line = 1;
    std::string rule;    ///< stable rule id, e.g. "naked-mutex"
    std::string message; ///< pointed, single-line diagnostic
    std::string symbol = {}; ///< the symbol reported, for per-symbol rules
};

/**
 * Check one file, given its tokenize() and scanIncludes() output.
 * `path` selects which rules apply (header vs. implementation,
 * directory under src/); use the repo-relative path so allowlist
 * suffixes are stable.
 */
std::vector<Finding> lintFile(const std::string &path,
                              const std::vector<Token> &toks,
                              const std::vector<Include> &includes);

/** Render findings as `file:line: [rule] message` lines. */
std::string formatText(const std::vector<Finding> &findings);

/** Render findings as a machine-readable JSON array. */
std::string formatJson(const std::vector<Finding> &findings);

} // namespace thermctl::lint

#endif // THERMCTL_TOOLS_LINT_LINT_HH

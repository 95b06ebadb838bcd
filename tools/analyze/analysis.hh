/**
 * @file
 * thermctl-deepcheck: whole-project static analysis over the thermctl
 * source tree.
 *
 * This library builds a *project model* across every file of one
 * invocation and runs two kinds of pass over it: the per-file project
 * rules of tools/lint (lint.hh lists them), each seeing one file's
 * tokens, and the cross-file passes:
 *
 *   layering / include-cycle   the committed `.thermctl-layers` file
 *                              declares the dependency DAG between
 *                              source directories (common at the
 *                              bottom, tools/tests/bench at the top);
 *                              the pass rejects includes that reach
 *                              *up* the layering and any include cycle
 *                              anywhere in the graph
 *   unchecked-return           call sites that discard the result of a
 *                              must-check function as a bare expression
 *                              statement (`writeFrame(...)`; on a line
 *                              of its own). The must-check set is the
 *                              built-in seed list (frame/socket I/O,
 *                              encoders + decoders, cache publish/load)
 *                              plus every function the project itself
 *                              declares [[nodiscard]] — so tightening
 *                              an API tightens the analysis with it.
 *                              An explicit `(void)` cast acknowledges
 *                              and silences a site.
 *   lock-order                 a static lock-acquisition graph derived
 *                              from MutexLock nesting (scope-tracked
 *                              per function) plus the PR-4
 *                              THERMCTL_REQUIRES annotations (a
 *                              function that REQUIRES mutex A and
 *                              acquires B adds the edge A→B even
 *                              though the acquisition of A is in its
 *                              callers). Cycles in the graph are
 *                              reported as potential deadlocks.
 *
 * The model is deliberately token-level (built on the tools/lint
 * tokenizer, not libclang): include resolution, a lightweight symbol
 * index (function definitions, [[nodiscard]] declarations, call
 * sites), and lock-acquisition edges are all derivable from the token
 * stream, which keeps the tool dependency-free and fast enough to run
 * over the whole tree on every scripts/check.sh invocation (stage
 * "analyze").
 *
 * Every pass reports lint::Finding; grandfathered exceptions live in
 * one Allowlist (`rule path-suffix justification` entries, stale
 * entries flagged), committed as `.thermctl-analyze-allow`. DESIGN.md
 * §13 documents the model, the passes, and the `.thermctl-layers`
 * format.
 */

#ifndef THERMCTL_TOOLS_ANALYZE_ANALYSIS_HH
#define THERMCTL_TOOLS_ANALYZE_ANALYSIS_HH

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/lint.hh"

namespace thermctl::analysis
{

/** One file of the project model. */
struct SourceFile
{
    std::string path; ///< repo-relative, '/'-separated
    std::vector<lint::Include> includes;

    /**
     * The file's token stream (comments stripped, strings collapsed).
     * Tokenized once at build time and shared by every pass; the
     * dataflow passes (dataflow.hh) index function bodies and struct
     * fields directly out of this stream.
     */
    std::vector<lint::Token> tokens;

    /**
     * Resolved project-internal include edges: for includes[k] that
     * named another modeled file, `edges` holds that file's model
     * index and `edge_include` the position k it came from. External
     * (system / unmodeled) includes produce no edge.
     */
    std::vector<std::size_t> edges;
    std::vector<std::size_t> edge_include;
};

/** A function definition or [[nodiscard]] declaration found in a file. */
struct FunctionInfo
{
    std::string name;        ///< unqualified identifier
    std::string return_type; ///< best-effort spelling ("" when unknown)
    std::string file;
    int line = 1;
    bool nodiscard = false; ///< declared [[nodiscard]]
};

/** One call site of the form `name(...)` (after `.`/`->`/`::` chains). */
struct CallSite
{
    std::string name;
    std::string file;
    int line = 1;

    /**
     * True when the call is a bare expression statement whose value is
     * dropped (not assigned, returned, tested, passed on, or cast to
     * void).
     */
    bool discarded = false;
};

/** Edge of the static lock-acquisition graph: `held` → `acquired`. */
struct LockEdge
{
    std::string held;     ///< mutex already held (scope or REQUIRES)
    std::string acquired; ///< mutex being acquired under it
    std::string file;
    int line = 1;         ///< line of the inner acquisition
};

/** Options for ProjectModel::build. */
struct BuildOptions
{
    /**
     * Include-resolution roots, tried in order after the including
     * file's own directory. The repo convention is `#include
     * "common/logging.hh"` relative to src/ (and "lint/lint.hh"
     * relative to tools/), so the defaults cover the real tree; fixture
     * trees pass their own roots (often just "").
     */
    std::vector<std::string> roots = {"src", "tools"};
};

/**
 * The whole-project model: every file's include edges plus the
 * project-wide symbol index. Built once per invocation; the passes
 * below are cheap queries over it.
 */
class ProjectModel
{
  public:
    /** Build the model from (path, content) pairs. Order is preserved. */
    static ProjectModel
    build(const std::vector<std::pair<std::string, std::string>> &files,
          const BuildOptions &opts = {});

    const std::vector<SourceFile> &files() const { return files_; }
    const std::vector<FunctionInfo> &functions() const { return functions_; }
    const std::vector<CallSite> &calls() const { return calls_; }
    const std::vector<LockEdge> &lockEdges() const { return lock_edges_; }

    /** Names declared [[nodiscard]] anywhere in the model. */
    const std::set<std::string> &nodiscardNames() const
    {
        return nodiscard_names_;
    }

    /** @return model index of `path`, or npos. */
    std::size_t indexOf(std::string_view path) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  private:
    std::vector<SourceFile> files_;
    std::vector<FunctionInfo> functions_;
    std::vector<CallSite> calls_;
    std::vector<LockEdge> lock_edges_;
    std::set<std::string> nodiscard_names_;
};

/**
 * Parsed `.thermctl-layers` file: an ordered list of layers, lowest
 * first, each owning a set of path prefixes. A file belongs to the
 * layer with the longest matching prefix; a file may include files of
 * its own or any *lower* layer, never a higher one.
 *
 * Format, one layer per line (blank lines / `#` comments ignored):
 *
 *     layer <name> <path-prefix> [<path-prefix>...]
 */
class LayerSpec
{
  public:
    struct Layer
    {
        std::string name;
        std::vector<std::string> prefixes;
    };

    /** @return false and set `error` on a malformed or duplicate line. */
    bool parse(std::string_view text, std::string &error);

    /** @return layer index of `path` (longest prefix wins), or -1. */
    int layerOf(std::string_view path) const;

    const std::vector<Layer> &layers() const { return layers_; }
    bool empty() const { return layers_.empty(); }

  private:
    std::vector<Layer> layers_;
};

/**
 * The unchecked-return pass's must-check set: exact names plus
 * prefixes (an entry ending in '*' in the CLI). matches() also accepts
 * any project-declared [[nodiscard]] name when a model is supplied to
 * checkUncheckedReturns.
 */
struct MustCheckSet
{
    std::vector<std::string> exact;
    std::vector<std::string> prefixes;

    bool matches(std::string_view name) const;

    /** Add `entry`, treating a trailing '*' as a prefix wildcard. */
    void add(std::string_view entry);

    /**
     * The seed set: frame/socket I/O (writeFrame, readFully,
     * readFrame), every name starting with encode / decode /
     * serialize / deserialize,
     * and cache publish/load (loadCacheEntry, validCacheBytes,
     * sweepCacheLookup).
     */
    static MustCheckSet defaults();
};

/**
 * Stable rule ids of every pass, the per-file project rules included
 * (allowlist validation, `--pass`, `--list-rules`).
 */
const std::vector<std::string> &analysisRuleIds();

/** Grandfathered exceptions: `rule path-suffix justification...`. */
class Allowlist
{
  public:
    /**
     * Parse the allowlist text. Lines are `rule path-suffix
     * [justification...]`; blank lines and `#` comments are ignored.
     * @return false and set `error` on a malformed line (missing
     * path-suffix, rule id not in analysisRuleIds()).
     */
    bool parse(std::string_view text, std::string &error);

    /**
     * @return true when `f` matches an entry: same rule, and the path
     * equals the suffix or ends with "/" + suffix.
     */
    bool allows(const lint::Finding &f) const;

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

/**
 * Layering pass: every resolved include edge must point sideways or
 * down the LayerSpec; files matching no layer are reported once.
 * Returns nothing when `spec` is empty.
 */
std::vector<lint::Finding> checkLayering(const ProjectModel &model,
                                         const LayerSpec &spec);

/** Include-cycle pass: report every cycle in the include graph once. */
std::vector<lint::Finding> checkIncludeCycles(const ProjectModel &model);

/**
 * Unchecked-return pass: flag discarded calls to must-check functions
 * (the set plus every [[nodiscard]] name the model itself declares).
 */
std::vector<lint::Finding>
checkUncheckedReturns(const ProjectModel &model, const MustCheckSet &must);

/** Lock-order pass: report cycles in the lock-acquisition graph. */
std::vector<lint::Finding> checkLockOrder(const ProjectModel &model);

/**
 * Pass selection and per-pass options for analyzeProject. The per-file
 * rules live in lint.hh and the two dataflow passes (alloc-bound,
 * field-coverage) in dataflow.hh; they are declared there and
 * dispatched here so the CLI sees one entry point.
 */
struct AnalyzeOptions
{
    /**
     * Rule ids to run (`--pass` on the CLI); empty means every pass.
     * Unknown names are the caller's responsibility to reject (the CLI
     * validates against analysisRuleIds()).
     */
    std::vector<std::string> passes;

    /**
     * Field-coverage exclusions, as "Struct::field" strings
     * (`--allow-field` on the CLI): deliberately-uncovered fields that
     * must not be reported.
     */
    std::set<std::string> allowed_fields;

    /** @return true when pass `id` should run. */
    bool wants(std::string_view id) const;
};

/**
 * All passes, per-file rules first; layering skipped when `spec` is
 * empty. Findings are ordered by file, then line.
 */
std::vector<lint::Finding> analyzeProject(const ProjectModel &model,
                                          const LayerSpec &spec,
                                          const MustCheckSet &must);

/** As above, honouring `opts` (pass filter + field exclusions). */
std::vector<lint::Finding> analyzeProject(const ProjectModel &model,
                                          const LayerSpec &spec,
                                          const MustCheckSet &must,
                                          const AnalyzeOptions &opts);

} // namespace thermctl::analysis

#endif // THERMCTL_TOOLS_ANALYZE_ANALYSIS_HH

/**
 * @file
 * thermctl-dataflow: per-function CFG + taint dataflow and struct-field
 * coverage auditing on top of the project model (analysis.hh).
 *
 * Two passes live here, both motivated by bug classes this repo has
 * actually shipped and fixed by hand:
 *
 *   alloc-bound      hostile count prefixes reaching an allocation.
 *                    Taint sources are values read from a ByteReader
 *                    (u8/u16/u32/u64/i64/f64/str/varint) and the
 *                    out-params of decode* and deserialize* calls;
 *                    sinks
 *                    are reserve(...), resize(...), `new T[n]`, and
 *                    count-taking container constructors. A tainted
 *                    value reaching a sink without a *dominating*
 *                    guard — a comparison against remaining(), a
 *                    k*Max* / k*Min* constant, a sizeof byte-length
 *                    cross-check, or (for decode out-params) a test of
 *                    the decode call's status — is a finding. This is
 *                    exactly the PR-4 allocation-bomb class
 *                    (decodeStrings, SweepReply::decode, decodeTrace).
 *
 *   field-coverage   struct fields silently missing from a
 *                    HashStream feed() or an encode/decode pair.
 *                    For every struct that has a digest function
 *                    (feed(HashStream&, const X&) or a digest helper
 *                    that names HashStream in its body) or
 *                    encode/decode/serialize/deserialize coverage,
 *                    every declared field name must appear in the
 *                    union of that role's bodies. Adding a field
 *                    without feeding it fails --ci instead of
 *                    corrupting sweep-cache keys — this supersedes the
 *                    sizeof static_assert advice in src/sim/sweep.cc.
 *
 * The CFG is intraprocedural and token-level: basic blocks over
 * if/else/for/while/do/switch/return/break/continue, dominators by the
 * standard iterative set intersection, and a conservative straight-line
 * fallback (one block per top-level statement chain) whenever a body
 * fails to parse. Straight-line fallback keeps statement *order*, so
 * guard detection still works there — only branch join precision is
 * lost.
 *
 * DESIGN.md §16 documents the model, the guard heuristics, and the
 * field-coverage contract.
 */

#ifndef THERMCTL_TOOLS_ANALYZE_DATAFLOW_HH
#define THERMCTL_TOOLS_ANALYZE_DATAFLOW_HH

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/analysis.hh"
#include "lint/lint.hh"

namespace thermctl::analysis
{

// ------------------------------------------------------------------ CFG

/** One statement: a half-open token range [begin, end) of the body. */
struct CfgStmt
{
    std::size_t begin = 0;
    std::size_t end = 0;
    bool is_cond = false; ///< condition of an if/while/for/do/switch
    int line = 1;         ///< line of the first token
};

/** One basic block: statements executed in order, then a branch. */
struct CfgBlock
{
    std::vector<CfgStmt> stmts;
    std::vector<std::size_t> succs; ///< successor block indices
};

/** A function body's control-flow graph. Block 0 is the entry. */
struct Cfg
{
    std::vector<CfgBlock> blocks;

    /** True when the body failed to parse and order-only fallback ran. */
    bool straight_line = false;
};

/**
 * Build the CFG for body tokens [begin, end) — the range *inside* the
 * braces of a function body. Falls back to a single straight-line
 * block (straight_line = true) on any structural inconsistency.
 */
Cfg buildCfg(const std::vector<lint::Token> &toks, std::size_t begin,
             std::size_t end);

/**
 * Dominator sets by iterative intersection: dom[b][d] is true when
 * every path from the entry to block b passes through block d (b
 * dominates itself). Unreachable blocks report every block as a
 * dominator, which errs toward "guarded" — dead code never allocates.
 */
std::vector<std::vector<bool>> dominators(const Cfg &cfg);

// -------------------------------------------------- function indexing

/** A function definition with parameter and body token ranges. */
struct FuncDef
{
    std::string name;      ///< unqualified identifier
    std::string qualifier; ///< nearest "X::" qualifier ("" when free)
    std::size_t params_begin = 0; ///< index of the opening '('
    std::size_t params_end = 0;   ///< index of the matching ')'
    std::size_t body_begin = 0;   ///< index of the opening '{'
    std::size_t body_end = 0;     ///< index of the matching '}'
    int line = 1;
};

/** Index every function definition (with a brace body) in `toks`. */
std::vector<FuncDef> indexFunctions(const std::vector<lint::Token> &toks);

// ---------------------------------------------------- struct indexing

/** One declared data member. */
struct FieldDef
{
    std::string name;
    int line = 1;
};

/** A named declaration (a function or a class) and its tokens. */
struct DeclDef
{
    std::string name;
    int line = 1;
    std::size_t begin = 0; ///< first token
    std::size_t end = 0;   ///< one past the last token
    bool is_public = true; ///< class members: declared under public:
};

/** A struct/class definition: data members, member functions. */
struct StructDef
{
    std::string name;
    std::string file;
    int line = 1;
    std::vector<FieldDef> fields;
    /**
     * Named member functions with their access; constructors,
     * destructors, operators and deleted functions are left out.
     */
    std::vector<DeclDef> methods;
    /** Nested class definitions: class-key token and access. */
    std::vector<DeclDef> nested;
    std::size_t begin = 0; ///< the class-key token
    std::size_t end = 0;   ///< one past the closing brace
};

/**
 * Index struct/class definitions in `toks`: field names and member
 * functions. Nested type definitions, using/typedef/static members
 * and friend declarations are not fields; initializers are not
 * mistaken for declarators. Nested structs are indexed as their own
 * entries.
 */
std::vector<StructDef> indexStructs(const std::vector<lint::Token> &toks,
                                    const std::string &file);

/**
 * The functions and classes a header declares for other files to use:
 * at namespace scope outside anonymous namespaces, and, recursively,
 * the public member functions and nested classes of such a class.
 * `name` is qualified by the enclosing classes ("Table::addRow"), not
 * by namespaces. Built on the same parser as indexStructs.
 */
std::vector<DeclDef> indexExported(const std::vector<lint::Token> &toks);

// ------------------------------------------------------------- passes

/**
 * alloc-bound pass over every function of every modeled file: tainted
 * allocation sizes must pass a dominating bound check. See the file
 * header for the taint/guard model.
 */
std::vector<lint::Finding> checkAllocBound(const ProjectModel &model);

/**
 * field-coverage pass: every field of a digested / serialized struct
 * must appear in the corresponding coverage bodies. `allowed_fields`
 * holds "Struct::field" exclusions (--allow-field on the CLI).
 */
std::vector<lint::Finding>
checkFieldCoverage(const ProjectModel &model,
                   const std::set<std::string> &allowed_fields);

} // namespace thermctl::analysis

#endif // THERMCTL_TOOLS_ANALYZE_DATAFLOW_HH

/**
 * @file
 * thermctl-deepcheck unit tests: the project model (include resolution,
 * symbol index, discard detection), each cross-file pass against the
 * committed fixture trees under tests/analyze/fixtures/, and the CLI
 * exit-code contract (findings, allowlist suppression, --ci stale-entry
 * hard failure, per-file project rules run as passes).
 *
 * The fixture trees are real files on disk (not embedded snippets) so
 * the PR-5 ignored-writeFrame regression stays reproducible byte for
 * byte; THERMCTL_ANALYZE_FIXTURES points at them at compile time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analyze/analysis.hh"
#include "analyze/dataflow.hh"
#include "lint/lint.hh"

using namespace thermctl::analysis;
using thermctl::lint::Finding;

namespace fs = std::filesystem;

namespace
{

std::string
fixtureRoot()
{
    return THERMCTL_ANALYZE_FIXTURES;
}

std::string
readFileOrDie(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open fixture " << p;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Load fixture files as (relative-path, content) pairs. */
std::vector<std::pair<std::string, std::string>>
loadFixtures(const std::vector<std::string> &relative)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &rel : relative)
        out.emplace_back(rel,
                         readFileOrDie(fs::path(fixtureRoot()) / rel));
    return out;
}

/** Run a shell command, returning its exit status (-1 on signal). */
int
runCommand(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** RAII temp directory for CLI allowlist tests. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        std::string tmpl = (fs::temp_directory_path()
                            / "thermctl_analyze_test.XXXXXX")
                               .string();
        char *made = mkdtemp(tmpl.data());
        EXPECT_NE(made, nullptr);
        path = tmpl;
    }
    ~TempDir() { fs::remove_all(path); }
};

void
writeText(const fs::path &p, const std::string &text)
{
    std::ofstream out(p, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
}

} // namespace

// ---------------------------------------------------------- project model

TEST(AnalyzeModel, ResolvesIncludesOwnDirThenRoots)
{
    BuildOptions opts;
    opts.roots = {""};
    const ProjectModel model = ProjectModel::build(
        {{"pkg/a.hh", "#include \"b.hh\"\n#include \"other/c.hh\"\n"
                      "#include <vector>\n"},
         {"pkg/b.hh", "struct B {};\n"},
         {"other/c.hh", "struct C {};\n"}},
        opts);
    ASSERT_EQ(model.files().size(), 3u);
    const SourceFile &a = model.files()[0];
    // b.hh via the including file's own directory, c.hh via the root;
    // <vector> is external and produces no edge.
    ASSERT_EQ(a.edges.size(), 2u);
    EXPECT_EQ(model.files()[a.edges[0]].path, "pkg/b.hh");
    EXPECT_EQ(model.files()[a.edges[1]].path, "other/c.hh");
}

TEST(AnalyzeModel, IndexesDefinitionsDeclarationsAndQualifiedMembers)
{
    const ProjectModel model = ProjectModel::build(
        {{"m.cc", "struct W { void f64(double v); };\n"
                  "void W::f64(double v) { (void)v; }\n"
                  "int pickCore();\n"
                  "bool readPoint(int fd) { return fd >= 0; }\n"}});
    bool saw_decl = false, saw_qualified = false, saw_def = false;
    for (const FunctionInfo &fn : model.functions()) {
        if (fn.name == "f64" && fn.return_type == "void")
            (fn.line == 2 ? saw_qualified : saw_decl) = true;
        if (fn.name == "pickCore" && fn.return_type == "int")
            saw_decl = true;
        if (fn.name == "readPoint" && fn.return_type == "bool")
            saw_def = true;
    }
    EXPECT_TRUE(saw_decl);
    EXPECT_TRUE(saw_qualified);
    EXPECT_TRUE(saw_def);
}

TEST(AnalyzeModel, HarvestsNodiscardNames)
{
    const ProjectModel model = ProjectModel::build(
        {{"api.hh", "[[nodiscard]] int fetchValue();\n"
                    "void plainHelper();\n"}});
    EXPECT_EQ(model.nodiscardNames().count("fetchValue"), 1u);
    EXPECT_EQ(model.nodiscardNames().count("plainHelper"), 0u);
}

// ------------------------------------------------------------- layer spec

TEST(AnalyzeLayers, ParsesSpecAndMatchesLongestPrefix)
{
    LayerSpec spec;
    std::string error;
    ASSERT_TRUE(spec.parse("# comment\n"
                           "layer base src/common\n"
                           "layer app src tools\n",
                           error))
        << error;
    ASSERT_EQ(spec.layers().size(), 2u);
    // src/common/x.hh matches both prefixes; the longer one wins even
    // though its layer comes first.
    EXPECT_EQ(spec.layerOf("src/common/logging.hh"), 0);
    EXPECT_EQ(spec.layerOf("src/sim/simulator.hh"), 1);
    EXPECT_EQ(spec.layerOf("tools/thermctl_run.cc"), 1);
    EXPECT_EQ(spec.layerOf("bench/fig.cc"), -1);
    // Prefixes are component-wise: src/commonX is not under src/common.
    EXPECT_EQ(spec.layerOf("src/commonX/x.hh"), 1);
}

TEST(AnalyzeLayers, RejectsMalformedAndDuplicateLines)
{
    LayerSpec spec;
    std::string error;
    EXPECT_FALSE(spec.parse("layer\n", error));
    EXPECT_FALSE(spec.parse("tier base src\n", error));
    EXPECT_FALSE(
        spec.parse("layer base src\nlayer base tools\n", error));
}

// --------------------------------------------------- layering + cycles

TEST(AnalyzePasses, FlagsUpwardIncludeAcrossLayers)
{
    BuildOptions opts;
    opts.roots = {""};
    // Model paths are relative to the layering/ subtree so they line
    // up with the low/high prefixes in layers.conf.
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string rel : {"low/util.hh", "high/app.hh"})
        files.emplace_back(rel, readFileOrDie(fs::path(fixtureRoot())
                                              / "layering" / rel));
    const ProjectModel model = ProjectModel::build(files, opts);

    LayerSpec spec;
    std::string error;
    ASSERT_TRUE(spec.parse(
        readFileOrDie(fs::path(fixtureRoot()) / "layering/layers.conf"),
        error))
        << error;

    const std::vector<Finding> findings = checkLayering(model, spec);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
    EXPECT_EQ(findings[0].file, "low/util.hh");
    EXPECT_NE(findings[0].message.find("high"), std::string::npos);
}

TEST(AnalyzePasses, DownwardIncludeIsClean)
{
    BuildOptions opts;
    opts.roots = {""};
    const ProjectModel model = ProjectModel::build(
        {{"high/app.hh", "#include \"low/util.hh\"\n"},
         {"low/util.hh", "inline int utilValue() { return 1; }\n"}},
        opts);
    LayerSpec spec;
    std::string error;
    ASSERT_TRUE(spec.parse("layer low low\nlayer high high\n", error));
    EXPECT_TRUE(checkLayering(model, spec).empty());
}

TEST(AnalyzePasses, ReportsPlantedIncludeCycleOnce)
{
    BuildOptions opts;
    opts.roots = {""};
    const ProjectModel model = ProjectModel::build(
        loadFixtures({"cycle/a.hh", "cycle/b.hh"}), opts);
    const std::vector<Finding> findings = checkIncludeCycles(model);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "include-cycle");
    EXPECT_NE(findings[0].message.find("a.hh"), std::string::npos);
    EXPECT_NE(findings[0].message.find("b.hh"), std::string::npos);
}

// ------------------------------------------------------ unchecked-return

TEST(AnalyzePasses, FlagsTheIgnoredWriteFrameRegression)
{
    // The PR-5 serve bug, frozen as a fixture: a connection loop that
    // drops writeFrame's result hung clients on half-written replies.
    const ProjectModel model = ProjectModel::build(
        loadFixtures({"unchecked/bad/server_loop.cc"}));
    const std::vector<Finding> findings =
        checkUncheckedReturns(model, MustCheckSet::defaults());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unchecked-return");
    EXPECT_EQ(findings[0].file, "unchecked/bad/server_loop.cc");
    EXPECT_NE(findings[0].message.find("writeFrame"), std::string::npos);
}

TEST(AnalyzePasses, FixedServerLoopIsClean)
{
    const ProjectModel model = ProjectModel::build(
        loadFixtures({"unchecked/good/server_loop.cc"}));
    EXPECT_TRUE(
        checkUncheckedReturns(model, MustCheckSet::defaults()).empty());
}

TEST(AnalyzePasses, AcceptsHandledAndVoidCastCalls)
{
    const ProjectModel model = ProjectModel::build(
        {{"ok.cc", "bool writeFrame(int fd);\n"
                   "bool relay(int fd) {\n"
                   "    if (!writeFrame(fd)) return false;\n"
                   "    bool sent = writeFrame(fd);\n"
                   "    (void)writeFrame(fd);\n"
                   "    return sent && writeFrame(fd);\n"
                   "}\n"}});
    EXPECT_TRUE(
        checkUncheckedReturns(model, MustCheckSet::defaults()).empty());
}

TEST(AnalyzePasses, VoidOnlyMustCheckNamesAreExempt)
{
    // encodePoint matches the encode* must-check prefix, but every
    // definition returns void (the writer carries the state), so a bare
    // call is not a dropped result.
    const ProjectModel model = ProjectModel::build(
        {{"proto.cc", "struct W {};\n"
                      "void encodePoint(W &w);\n"
                      "void fill(W &w) { encodePoint(w); }\n"}});
    EXPECT_TRUE(
        checkUncheckedReturns(model, MustCheckSet::defaults()).empty());
}

TEST(AnalyzePasses, ProjectNodiscardNamesExtendTheMustCheckSet)
{
    const ProjectModel model = ProjectModel::build(
        {{"api.hh", "[[nodiscard]] int fetchValue();\n"},
         {"use.cc", "#include \"api.hh\"\n"
                    "void poll() { fetchValue(); }\n"}});
    const std::vector<Finding> findings =
        checkUncheckedReturns(model, MustCheckSet::defaults());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("fetchValue"), std::string::npos);
}

TEST(AnalyzePasses, NodiscardNameWithVoidOverloadDropsOut)
{
    // ByteWriter::str vs the [[nodiscard]] ByteReader::str: a
    // token-level pass cannot tell the call sites apart, so the name
    // is left to the compiler's per-overload -Wunused-result.
    const ProjectModel model = ProjectModel::build(
        {{"rw.hh", "struct R { [[nodiscard]] int str(); };\n"
                   "struct W { void str(int v); };\n"},
         {"use.cc", "#include \"rw.hh\"\n"
                    "void fill(W &w) { w.str(7); }\n"}});
    EXPECT_TRUE(
        checkUncheckedReturns(model, MustCheckSet::defaults()).empty());
}

TEST(AnalyzeMustCheck, WildcardAndExactEntries)
{
    MustCheckSet must;
    must.add("publishEntry");
    must.add("encode*");
    EXPECT_TRUE(must.matches("publishEntry"));
    EXPECT_TRUE(must.matches("encodeFrame"));
    EXPECT_FALSE(must.matches("publish"));
    EXPECT_FALSE(must.matches("reencode"));
}

// ------------------------------------------------------------ lock order

TEST(AnalyzePasses, FlagsAbBaLockInversion)
{
    const ProjectModel model =
        ProjectModel::build(loadFixtures({"lockorder/bad.cc"}));
    const std::vector<Finding> findings = checkLockOrder(model);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "lock-order");
    EXPECT_NE(findings[0].message.find("g_state_mu"), std::string::npos);
    EXPECT_NE(findings[0].message.find("g_cache_mu"), std::string::npos);
}

TEST(AnalyzePasses, ConsistentLockOrderIsClean)
{
    const ProjectModel model =
        ProjectModel::build(loadFixtures({"lockorder/good.cc"}));
    EXPECT_TRUE(checkLockOrder(model).empty());
}

TEST(AnalyzePasses, RequiresAnnotationSeedsHeldSet)
{
    // refill() never acquires g_a itself, but THERMCTL_REQUIRES says
    // every caller holds it — so its acquisition of g_b is an a->b
    // edge, and drain() closes the cycle.
    const ProjectModel model = ProjectModel::build(
        {{"req.cc",
          "void refill() THERMCTL_REQUIRES(g_a) { MutexLock b(g_b); }\n"
          "void drain() { MutexLock b(g_b); MutexLock a(g_a); }\n"}});
    const std::vector<Finding> findings = checkLockOrder(model);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "lock-order");
}

// ------------------------------------------------------ CFG + dominators

namespace
{

/** Index of the (unique) block whose statements mention `name`. */
std::size_t
blockMentioning(const Cfg &cfg,
                const std::vector<thermctl::lint::Token> &toks,
                std::string_view name)
{
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
        for (const CfgStmt &s : cfg.blocks[b].stmts)
            for (std::size_t k = s.begin; k < s.end; ++k)
                if (toks[k].text == name)
                    return b;
    ADD_FAILURE() << "no block mentions " << name;
    return 0;
}

/** Build the CFG of the single function definition in `src`. */
Cfg
cfgOfOnlyFunction(const std::vector<thermctl::lint::Token> &toks)
{
    const std::vector<FuncDef> fns = indexFunctions(toks);
    EXPECT_EQ(fns.size(), 1u);
    if (fns.size() != 1)
        return {};
    return buildCfg(toks, fns[0].body_begin + 1, fns[0].body_end);
}

} // namespace

TEST(DataflowCfg, IfElseBranchesDoNotDominateTheJoin)
{
    const auto toks = thermctl::lint::tokenize("void f(int n) {\n"
                                               "    if (n > 0) {\n"
                                               "        first();\n"
                                               "    } else {\n"
                                               "        second();\n"
                                               "    }\n"
                                               "    joined();\n"
                                               "}\n");
    const Cfg cfg = cfgOfOnlyFunction(toks);
    EXPECT_FALSE(cfg.straight_line);
    const auto dom = dominators(cfg);
    const std::size_t then_b = blockMentioning(cfg, toks, "first");
    const std::size_t else_b = blockMentioning(cfg, toks, "second");
    const std::size_t join_b = blockMentioning(cfg, toks, "joined");
    // The entry (which holds the condition) dominates the join; the
    // branch arms do not — either one can be skipped.
    EXPECT_TRUE(dom[join_b][0]);
    EXPECT_FALSE(dom[join_b][then_b]);
    EXPECT_FALSE(dom[join_b][else_b]);
}

TEST(DataflowCfg, NestedIfInnerArmDoesNotDominateOuterTail)
{
    const auto toks = thermctl::lint::tokenize("void f(int a, int b) {\n"
                                               "    if (a) {\n"
                                               "        if (b) {\n"
                                               "            inner();\n"
                                               "        }\n"
                                               "        mid();\n"
                                               "    }\n"
                                               "    joined();\n"
                                               "}\n");
    const Cfg cfg = cfgOfOnlyFunction(toks);
    EXPECT_FALSE(cfg.straight_line);
    const auto dom = dominators(cfg);
    const std::size_t inner_b = blockMentioning(cfg, toks, "inner");
    const std::size_t mid_b = blockMentioning(cfg, toks, "mid");
    const std::size_t join_b = blockMentioning(cfg, toks, "joined");
    EXPECT_FALSE(dom[mid_b][inner_b]); // b may be false
    EXPECT_FALSE(dom[join_b][mid_b]);  // a may be false
    EXPECT_TRUE(dom[mid_b][0]);
    EXPECT_TRUE(dom[join_b][0]);
}

TEST(DataflowCfg, EarlyReturnGuardBlockDominatesTheAllocation)
{
    // The PR-4 decodeStrings shape: the guard condition lives in the
    // entry block, the early return in its own arm, and the reserve in
    // a block every path to which crosses the guard.
    const auto toks = thermctl::lint::tokenize(
        "bool decodeStrings(ByteReader &r, std::vector<std::string> &v)\n"
        "{\n"
        "    const std::uint64_t n = r.u64();\n"
        "    if (!r.ok() || n > r.remaining() / 8) {\n"
        "        return fail;\n"
        "    }\n"
        "    v.reserve(n);\n"
        "    return done;\n"
        "}\n");
    const Cfg cfg = cfgOfOnlyFunction(toks);
    EXPECT_FALSE(cfg.straight_line);
    const auto dom = dominators(cfg);
    const std::size_t guard_b = blockMentioning(cfg, toks, "remaining");
    const std::size_t ret_b = blockMentioning(cfg, toks, "fail");
    const std::size_t alloc_b = blockMentioning(cfg, toks, "reserve");
    EXPECT_TRUE(dom[alloc_b][guard_b]);
    EXPECT_FALSE(dom[alloc_b][ret_b]);
}

TEST(DataflowCfg, SwitchCasesDoNotDominateTheFollowingStatement)
{
    const auto toks = thermctl::lint::tokenize("void f(int mode) {\n"
                                               "    switch (mode) {\n"
                                               "    case 0:\n"
                                               "        caseA();\n"
                                               "        break;\n"
                                               "    default:\n"
                                               "        caseB();\n"
                                               "        break;\n"
                                               "    }\n"
                                               "    after();\n"
                                               "}\n");
    const Cfg cfg = cfgOfOnlyFunction(toks);
    EXPECT_FALSE(cfg.straight_line);
    const auto dom = dominators(cfg);
    const std::size_t a_b = blockMentioning(cfg, toks, "caseA");
    const std::size_t b_b = blockMentioning(cfg, toks, "caseB");
    const std::size_t after_b = blockMentioning(cfg, toks, "after");
    EXPECT_FALSE(dom[after_b][a_b]);
    EXPECT_FALSE(dom[after_b][b_b]);
    EXPECT_TRUE(dom[after_b][0]); // the switch head still dominates
}

TEST(DataflowCfg, MalformedBodyFallsBackToOrderedStraightLine)
{
    // A stray `else` is structurally inconsistent; the builder must
    // fall back to one block of ';'-split statements, order intact.
    const auto toks =
        thermctl::lint::tokenize("first(); else second(); third();");
    const Cfg cfg = buildCfg(toks, 0, toks.size());
    EXPECT_TRUE(cfg.straight_line);
    ASSERT_EQ(cfg.blocks.size(), 1u);
    ASSERT_EQ(cfg.blocks[0].stmts.size(), 3u);
    EXPECT_EQ(toks[cfg.blocks[0].stmts.front().begin].text, "first");
    EXPECT_EQ(toks[cfg.blocks[0].stmts.back().begin].text, "third");
}

TEST(DataflowStructs, IndexesFieldsSkippingMethodsAndNestedTypes)
{
    const auto toks = thermctl::lint::tokenize(
        "struct Outer {\n"
        "    using Clock = int;\n"
        "    static int shared;\n"
        "    static int make() { return 1; }\n"
        "    std::uint32_t count = 1'000;\n"
        "    double rate = 0.5, scale = 2.0;\n"
        "    std::vector<int> slots;\n"
        "    struct Inner { int depth; };\n"
        "    Inner inner;\n"
        "    void tick();\n"
        "    bool empty() const { return slots.empty(); }\n"
        "};\n");
    const std::vector<StructDef> structs = indexStructs(toks, "s.hh");
    const StructDef *outer = nullptr, *inner = nullptr;
    for (const StructDef &s : structs) {
        if (s.name == "Outer")
            outer = &s;
        if (s.name == "Inner")
            inner = &s;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    std::vector<std::string> names;
    for (const FieldDef &f : outer->fields)
        names.push_back(f.name);
    EXPECT_EQ(names, (std::vector<std::string>{"count", "rate", "scale",
                                               "slots", "inner"}));
    ASSERT_EQ(inner->fields.size(), 1u);
    EXPECT_EQ(inner->fields[0].name, "depth");
    names.clear();
    for (const DeclDef &m : outer->methods)
        names.push_back(m.name);
    EXPECT_EQ(names, (std::vector<std::string>{"make", "tick", "empty"}));
}

TEST(DataflowStructs, ExportedSurfaceFollowsScopesAndAccess)
{
    const auto toks = thermctl::lint::tokenize(
        "#define W_HH \\\n  int notAFunction();\n"
        "namespace a {\n"
        "namespace { int hidden(); }\n"
        "class W final : public Base<int> {\n"
        "    int priv();\n"
        "  public:\n"
        "    W() = default;\n"
        "    ~W();\n"
        "    static W make();\n"
        "    template <typename T> T as() const { return T(); }\n"
        "    void gone() = delete;\n"
        "    bool operator==(const W &) const;\n"
        "    int count THERMCTL_GUARDED_BY(mu);\n"
        "    struct Part { int size() const; };\n"
        "  private:\n"
        "    struct Hidden { int h(); };\n"
        "};\n"
        "inline int W::priv() { return 1; }\n"
        "int freeFn();\n"
        "}\n");
    std::vector<std::string> names;
    for (const DeclDef &d : indexExported(toks))
        names.push_back(d.name);
    EXPECT_EQ(names, (std::vector<std::string>{"W", "W::make", "W::as",
                                               "W::Part", "W::Part::size",
                                               "freeFn"}));
}

// ------------------------------------------------------------ alloc-bound

TEST(AnalyzePasses, AllocBoundFlagsUnguardedDecoders)
{
    const ProjectModel model = ProjectModel::build(loadFixtures(
        {"allocbound/bad/decoder.cc", "allocbound/bad/trace_decode.cc"}));
    const std::vector<Finding> findings = checkAllocBound(model);
    ASSERT_EQ(findings.size(), 4u);
    std::set<std::pair<std::string, int>> where;
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "alloc-bound");
        where.insert({f.file, f.line});
    }
    // The unguarded count-prefix reserve, the direct reader-read
    // reserve, the untested decode out-param resize, and the trusted
    // trace-header reserve.
    EXPECT_EQ(where.count({"allocbound/bad/decoder.cc", 32}), 1u);
    EXPECT_EQ(where.count({"allocbound/bad/decoder.cc", 42}), 1u);
    EXPECT_EQ(where.count({"allocbound/bad/decoder.cc", 70}), 1u);
    EXPECT_EQ(where.count({"allocbound/bad/trace_decode.cc", 37}), 1u);
}

TEST(AnalyzePasses, FixedDecoderShapesParseAsGuarded)
{
    // Regression for the PR-4 decoder fixes: the guarded shapes from
    // protocol.cc and trace.cc, mirrored byte for byte in the good
    // fixtures, must be recognized as guarded rather than re-flagged.
    const ProjectModel model = ProjectModel::build(
        loadFixtures({"allocbound/good/decoder.cc",
                      "allocbound/good/trace_decode.cc"}));
    EXPECT_TRUE(checkAllocBound(model).empty());
}

TEST(AnalyzePasses, AllocBoundTaintsOnlyTheReaderApi)
{
    // Only ByteReader's own read methods are taint sources: a size read
    // through a method the reader does not have (i64) is some other
    // value, while the u64 read beside it still flags.
    const ProjectModel model = ProjectModel::build(
        {{"src/serve/wide.cc",
          "bool\n"
          "decodeWide(ByteReader &r, std::vector<int> &a,\n"
          "           std::vector<int> &b)\n"
          "{\n"
          "    const std::uint64_t n = r.i64();\n"
          "    a.reserve(n);\n"
          "    const std::uint64_t m = r.u64();\n"
          "    b.reserve(m);\n"
          "    return r.ok();\n"
          "}\n"}});
    const std::vector<Finding> findings = checkAllocBound(model);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 8);
}

// --------------------------------------------------------- field-coverage

TEST(AnalyzePasses, FieldCoverageFlagsMissingDigestAndDecodeFields)
{
    const ProjectModel model =
        ProjectModel::build(loadFixtures({"fieldcov/bad/config.cc"}));
    const std::vector<Finding> findings = checkFieldCoverage(model, {});
    ASSERT_EQ(findings.size(), 2u);
    bool saw_digest = false, saw_decode = false;
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "field-coverage");
        if (f.message.find("KnobConfig::epoch_samples")
                != std::string::npos
            && f.message.find("fed to the digest") != std::string::npos)
            saw_digest = true;
        if (f.message.find("WireMsg::setpoint") != std::string::npos
            && f.message.find("decoded") != std::string::npos)
            saw_decode = true;
    }
    EXPECT_TRUE(saw_digest);
    EXPECT_TRUE(saw_decode);
}

TEST(AnalyzePasses, FieldCoverageCompleteConfigIsClean)
{
    const ProjectModel model =
        ProjectModel::build(loadFixtures({"fieldcov/good/config.cc"}));
    EXPECT_TRUE(checkFieldCoverage(model, {}).empty());
}

TEST(AnalyzePasses, FieldCoverageAllowedFieldsSuppressFindings)
{
    const ProjectModel model =
        ProjectModel::build(loadFixtures({"fieldcov/bad/config.cc"}));
    EXPECT_TRUE(checkFieldCoverage(model, {"KnobConfig::epoch_samples",
                                           "WireMsg::setpoint"})
                    .empty());
}

// ----------------------------------------------- real-source regressions

namespace
{

std::string
repoSource(const std::string &rel)
{
    return readFileOrDie(fs::path(THERMCTL_SOURCE_DIR) / rel);
}

} // namespace

TEST(DataflowRegression, RealDecodersAreGuarded)
{
    // The live PR-4 fixes themselves — not just their fixture mirrors —
    // must parse as guarded.
    const ProjectModel model = ProjectModel::build(
        {{"src/serve/protocol.hh", repoSource("src/serve/protocol.hh")},
         {"src/serve/protocol.cc", repoSource("src/serve/protocol.cc")},
         {"src/workload/trace.cc", repoSource("src/workload/trace.cc")}});
    EXPECT_TRUE(checkAllocBound(model).empty());
}

TEST(DataflowRegression, DroppingADigestFeedLineFailsFieldCoverage)
{
    // The acceptance probe for the sweep-cache contract: remove one
    // field feed from the real feed(HashStream&, const MulticoreConfig&)
    // and field-coverage must fail — demonstrated on an in-memory copy,
    // never by breaking the tree.
    const std::string config = repoSource("src/sim/config.hh");
    std::string sweep = repoSource("src/sim/sweep.cc");

    const ProjectModel clean = ProjectModel::build(
        {{"src/sim/config.hh", config}, {"src/sim/sweep.cc", sweep}});
    EXPECT_TRUE(checkFieldCoverage(clean, {}).empty());

    const std::string feed_line = "h.u64(m.budget_epoch_samples);";
    const std::size_t at = sweep.find(feed_line);
    ASSERT_NE(at, std::string::npos);
    sweep.erase(at, feed_line.size());

    const ProjectModel broken = ProjectModel::build(
        {{"src/sim/config.hh", config}, {"src/sim/sweep.cc", sweep}});
    const std::vector<Finding> findings = checkFieldCoverage(broken, {});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "field-coverage");
    EXPECT_NE(findings[0].message.find(
                  "MulticoreConfig::budget_epoch_samples"),
              std::string::npos);
}

// ---------------------------------------------------------- dead-surface

namespace
{

const std::vector<std::string> kWidgetTree = {
    "deadsurface/src/widget/widget.hh", "deadsurface/src/widget/widget.cc",
    "deadsurface/src/gauge/gauge.cc",   "deadsurface/tools/use_widget.cc",
    "deadsurface/perf/bench_widget.cc", "deadsurface/tests/test_widget.cc"};

/** symbol -> the finding's kind ("dead" or "internal"). */
std::map<std::string, std::string>
deadSurface(const std::vector<std::string> &files)
{
    std::map<std::string, std::string> out;
    for (const Finding &f :
         checkDeadSurface(ProjectModel::build(loadFixtures(files)))) {
        EXPECT_EQ(f.rule, "dead-surface");
        EXPECT_EQ(f.file, "deadsurface/src/widget/widget.hh");
        out[f.symbol] = f.message.substr(0, f.message.find(':'));
    }
    return out;
}

} // namespace

TEST(AnalyzePasses, DeadSurfaceFlagsTestOnlyAndInternalSymbols)
{
    // live() (tools/), perfHook() (perf/), viaArrow() (tools/, through
    // ->), widgetCount() and the class itself are clean; the private
    // secret() is never reported. reading() is dead although a field of
    // that name is read in src/: a member counts only as `.f(`, `->f(`
    // or `::f`.
    const std::map<std::string, std::string> expected = {
        {"Widget::onlyTested", "dead"},
        {"Widget::allowedHook", "dead"},
        {"Widget::reading", "dead"},
        {"Widget::helper", "internal"}};
    EXPECT_EQ(deadSurface(kWidgetTree), expected);
}

TEST(AnalyzePasses, DeadSurfaceCountsPerfAsACaller)
{
    std::vector<std::string> without_perf = kWidgetTree;
    without_perf.erase(std::find(without_perf.begin(), without_perf.end(),
                                 "deadsurface/perf/bench_widget.cc"));
    EXPECT_EQ(deadSurface(without_perf).count("Widget::perfHook"), 1u);
}

TEST(AnalyzeAllowlist, DeadSurfaceEntriesNameOneSymbol)
{
    Allowlist allow;
    std::string error;
    ASSERT_TRUE(allow.parse("dead-surface src/widget/widget.hh "
                            "Widget::allowedHook a test hook\n",
                            error))
        << error;
    Finding hook{"x/src/widget/widget.hh", 12, "dead-surface", "dead: ...",
                 "Widget::allowedHook"};
    Finding other = hook;
    other.symbol = "Widget::onlyTested";
    EXPECT_TRUE(allow.allows(hook));
    EXPECT_FALSE(allow.allows(other));

    // A whole-file entry, or one without a justification, is malformed.
    EXPECT_FALSE(allow.parse("dead-surface src/widget/widget.hh\n", error));
    EXPECT_FALSE(allow.parse(
        "dead-surface src/widget/widget.hh Widget::allowedHook\n", error));
}

// ------------------------------------------------------------ aggregate

TEST(AnalyzeProject, CleanTreeHasNoFindings)
{
    BuildOptions opts;
    opts.roots = {""};
    const ProjectModel model = ProjectModel::build(
        loadFixtures({"unchecked/good/server_loop.cc",
                      "lockorder/good.cc", "layering/high/app.hh"}),
        opts);
    LayerSpec spec;
    std::string error;
    ASSERT_TRUE(spec.parse("layer base layering\n"
                           "layer apps unchecked lockorder\n",
                           error));
    EXPECT_TRUE(
        analyzeProject(model, spec, MustCheckSet::defaults()).empty());
}

TEST(AnalyzeProject, RuleIdsAreStable)
{
    const std::vector<std::string> ids = analysisRuleIds();
    ASSERT_EQ(ids.size(), 14u);
    for (const char *id :
         {"raw-double-param", "using-namespace-header", "reader-bounds",
          "naked-mutex", "missing-thread-annotations", "fault-point-scope",
          "raw-number-parse", "layering", "include-cycle",
          "unchecked-return", "lock-order", "alloc-bound",
          "field-coverage", "dead-surface"})
        EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
}

TEST(AnalyzeAllowlist, ParsesAgainstAnalysisRuleIds)
{
    Allowlist allow;
    std::string error;
    EXPECT_TRUE(allow.parse("lock-order src/sim/sweep.cc justified\n",
                            error))
        << error;
    // The per-file project rules share the one vocabulary.
    EXPECT_TRUE(allow.parse("naked-mutex src/x.cc justified\n", error))
        << error;
}

// ------------------------------------------------------------------- CLI

TEST(AnalyzeCli, ExitCodesAndCiStaleHardFailure)
{
    const std::string bad =
        fixtureRoot() + std::string("/unchecked/bad/server_loop.cc");
    const std::string good =
        fixtureRoot() + std::string("/unchecked/good/server_loop.cc");

    TempDir tmp;
    // Pin an empty layers spec: the CLI otherwise auto-loads
    // .thermctl-layers from the working directory, whose prefixes can
    // never match the fixtures' absolute paths.
    writeText(tmp.path / "layers", "");
    const std::string bin = std::string(THERMCTL_ANALYZE_BIN)
                            + " --layers "
                            + (tmp.path / "layers").string();

    // Findings exit 1; a clean file exits 0.
    EXPECT_EQ(runCommand(bin + " " + bad + " >/dev/null 2>&1"), 1);
    EXPECT_EQ(runCommand(bin + " " + good + " >/dev/null 2>&1"), 0);

    // An allowlist entry suppresses the finding.
    writeText(tmp.path / "allow",
              "unchecked-return unchecked/bad/server_loop.cc frozen "
              "regression fixture\n");
    EXPECT_EQ(runCommand(bin + " --allowlist "
                         + (tmp.path / "allow").string() + " " + bad
                         + " >/dev/null 2>&1"),
              0);

    // The same entry against the *fixed* file is stale: tolerated by
    // default, a hard failure under --ci.
    EXPECT_EQ(runCommand(bin + " --allowlist "
                         + (tmp.path / "allow").string() + " " + good
                         + " >/dev/null 2>&1"),
              0);
    EXPECT_EQ(runCommand(bin + " --ci --allowlist "
                         + (tmp.path / "allow").string() + " " + good
                         + " >/dev/null 2>&1"),
              1);

    // Unknown rule ids in the allowlist are a usage error.
    writeText(tmp.path / "badallow", "no-such-rule x.cc\n");
    EXPECT_EQ(runCommand(bin + " --allowlist "
                         + (tmp.path / "badallow").string() + " " + good
                         + " >/dev/null 2>&1"),
              2);
}

TEST(AnalyzeCli, PassFilterRunsOnlySelectedPasses)
{
    TempDir tmp;
    writeText(tmp.path / "layers", "");
    const std::string bin = std::string(THERMCTL_ANALYZE_BIN)
                            + " --layers "
                            + (tmp.path / "layers").string();
    const std::string fieldbad =
        fixtureRoot() + std::string("/fieldcov/bad");
    const std::string allocbad =
        fixtureRoot() + std::string("/allocbound/bad");

    // Each bad tree only trips its own pass: the mismatched filter is
    // clean, the matching one fails.
    EXPECT_EQ(runCommand(bin + " --pass alloc-bound " + fieldbad
                         + " >/dev/null 2>&1"),
              0);
    EXPECT_EQ(runCommand(bin + " --pass field-coverage " + fieldbad
                         + " >/dev/null 2>&1"),
              1);
    EXPECT_EQ(runCommand(bin + " --pass field-coverage " + allocbad
                         + " >/dev/null 2>&1"),
              0);
    EXPECT_EQ(runCommand(bin + " --pass alloc-bound " + allocbad
                         + " >/dev/null 2>&1"),
              1);

    // Unknown pass names are usage errors, not silent no-ops.
    EXPECT_EQ(runCommand(bin + " --pass no-such-pass " + fieldbad
                         + " >/dev/null 2>&1"),
              2);
}

TEST(AnalyzeCli, AllowFieldSuppressesNamedFields)
{
    TempDir tmp;
    writeText(tmp.path / "layers", "");
    const std::string bin = std::string(THERMCTL_ANALYZE_BIN)
                            + " --layers "
                            + (tmp.path / "layers").string();
    const std::string fieldbad =
        fixtureRoot() + std::string("/fieldcov/bad");

    EXPECT_EQ(runCommand(bin
                         + " --pass field-coverage"
                           " --allow-field KnobConfig::epoch_samples"
                           " --allow-field WireMsg::setpoint "
                         + fieldbad + " >/dev/null 2>&1"),
              0);
    // Excluding only one of the two leaves the other finding live.
    EXPECT_EQ(runCommand(bin
                         + " --pass field-coverage"
                           " --allow-field KnobConfig::epoch_samples "
                         + fieldbad + " >/dev/null 2>&1"),
              1);
    // An exclusion without the Struct:: qualifier is a usage error.
    EXPECT_EQ(runCommand(bin + " --allow-field epoch_samples " + fieldbad
                         + " >/dev/null 2>&1"),
              2);
}

TEST(AnalyzeCli, ProjectRuleFindingsExitOneUnlessAllowlisted)
{
    TempDir tmp;
    writeText(tmp.path / "layers", "");
    writeText(tmp.path / "probe.cc",
              "#include <cstdlib>\n"
              "int port(const char *s) { return std::atoi(s); }\n");
    const std::string bin = std::string(THERMCTL_ANALYZE_BIN)
                            + " --layers "
                            + (tmp.path / "layers").string();
    const std::string probe = (tmp.path / "probe.cc").string();

    // raw-number-parse is a per-file rule; it now runs as a pass.
    EXPECT_EQ(runCommand(bin + " " + probe + " >/dev/null 2>&1"), 1);
    EXPECT_EQ(runCommand(bin + " --pass raw-number-parse " + probe
                         + " >/dev/null 2>&1"),
              1);
    EXPECT_EQ(runCommand(bin + " --pass naked-mutex " + probe
                         + " >/dev/null 2>&1"),
              0);

    // An entry for the rule and the file suppresses the finding...
    writeText(tmp.path / "allow",
              "raw-number-parse probe.cc planted for this test\n");
    EXPECT_EQ(runCommand(bin + " --ci --allowlist "
                         + (tmp.path / "allow").string() + " " + probe
                         + " >/dev/null 2>&1"),
              0);
    // ...but a suffix that starts mid-component matches nothing.
    writeText(tmp.path / "partial", "raw-number-parse robe.cc nope\n");
    EXPECT_EQ(runCommand(bin + " --allowlist "
                         + (tmp.path / "partial").string() + " " + probe
                         + " >/dev/null 2>&1"),
              1);
}

TEST(AnalyzeCli, DeadSurfaceAllowEntriesAndCiStaleness)
{
    TempDir tmp;
    writeText(tmp.path / "layers", "");
    const std::string bin = std::string(THERMCTL_ANALYZE_BIN)
                            + " --pass dead-surface --layers "
                            + (tmp.path / "layers").string();
    const std::string tree = fixtureRoot() + std::string("/deadsurface");
    const std::string entries =
        "dead-surface deadsurface/src/widget/widget.hh Widget::onlyTested "
        "planted\n"
        "dead-surface deadsurface/src/widget/widget.hh Widget::helper "
        "planted\n"
        "dead-surface deadsurface/src/widget/widget.hh Widget::reading "
        "planted\n";
    auto run = [&](const std::string &allow_text, const char *flags) {
        writeText(tmp.path / "allow", allow_text);
        return runCommand(bin + flags + " --allowlist "
                          + (tmp.path / "allow").string() + " " + tree
                          + " >/dev/null 2>&1");
    };

    // Each entry suppresses exactly its own symbol: allowedHook is
    // still reported until it gets an entry of its own.
    EXPECT_EQ(run(entries, ""), 1);
    const std::string all =
        entries
        + "dead-surface deadsurface/src/widget/widget.hh "
          "Widget::allowedHook planted\n";
    EXPECT_EQ(run(all, " --ci"), 0);

    // An entry for a symbol the pass no longer reports is stale, which
    // fails the run under --ci only.
    const std::string stale =
        all
        + "dead-surface deadsurface/src/widget/widget.hh Widget::live "
          "planted\n";
    EXPECT_EQ(run(stale, ""), 0);
    EXPECT_EQ(run(stale, " --ci"), 1);
}

/**
 * @file
 * Per-file project rule tests: the tokenizer (comment/string
 * stripping, "::" collapsing, line tracking), the include scanner, each
 * project rule against embedded good and bad snippets, and the
 * allowlist path (parsing, suppression, stale-entry reporting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analysis.hh"
#include "lint/lint.hh"

using namespace thermctl::lint;
using thermctl::analysis::Allowlist;

namespace
{

/** Rule ids present in the findings for (path, src). */
std::vector<std::string>
rulesFor(const std::string &path, std::string_view src)
{
    std::vector<std::string> rules;
    for (const Finding &f : lintFile(path, tokenize(src), scanIncludes(src)))
        rules.push_back(f.rule);
    return rules;
}

bool
hasRule(const std::vector<std::string> &rules, std::string_view id)
{
    return std::find(rules.begin(), rules.end(), id) != rules.end();
}

} // namespace

// -------------------------------------------------------------- tokenizer

TEST(LintTokenizer, StripsCommentsAndTracksLines)
{
    const auto toks = tokenize("int a; // trailing mutex\n"
                               "/* std::mutex in a\n   block comment */\n"
                               "int b;\n");
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[3].text, "int");
    EXPECT_EQ(toks[3].line, 4);
    for (const Token &t : toks)
        EXPECT_NE(t.text, "mutex");
}

TEST(LintTokenizer, CollapsesStringAndCharLiterals)
{
    const auto toks =
        tokenize("f(\"std::mutex \\\" quoted\", 'x', \"// not a comment\");");
    std::size_t strings = 0;
    for (const Token &t : toks) {
        if (t.kind == Token::Kind::String) {
            ++strings;
            EXPECT_TRUE(t.text.find("quoted") != std::string::npos
                        || t.text.find("comment") != std::string::npos);
        }
        EXPECT_NE(t.text, "mutex"); // literal contents stay opaque
    }
    EXPECT_EQ(strings, 2u);
}

TEST(LintTokenizer, HandlesRawStrings)
{
    const auto toks = tokenize("auto s = R\"(std::mutex m; \")\" + x;");
    bool saw_plus = false;
    for (const Token &t : toks) {
        EXPECT_NE(t.text, "mutex");
        if (t.text == "+")
            saw_plus = true;
    }
    EXPECT_TRUE(saw_plus); // lexing resumed correctly after the raw string
}

TEST(LintTokenizer, HandlesEncodingPrefixedRawStrings)
{
    // u8R/uR/UR/LR prefixes must take the raw-string branch; treating
    // the '"' after the prefix as an ordinary string opener desyncs the
    // lexer on the embedded quote and swallows the rest of the file.
    const auto toks =
        tokenize("auto a = u8R\"(std::mutex \" half)\"; int after_u8;\n"
                 "auto b = LR\"delim(std::mutex \")delim\"; int after_L;\n");
    bool saw_u8 = false, saw_l = false;
    for (const Token &t : toks) {
        EXPECT_NE(t.text, "mutex");
        if (t.text == "after_u8")
            saw_u8 = true;
        if (t.text == "after_L")
            saw_l = true;
    }
    EXPECT_TRUE(saw_u8);
    EXPECT_TRUE(saw_l);
}

TEST(LintTokenizer, DigitSeparatorsStayInsideOneNumber)
{
    // 1'000'000 is one numeric literal; lexing the ' as a char-literal
    // opener would eat "000'" and desync everything after it.
    const auto toks = tokenize("int n = 1'000'000; int m = 0xFF'FFu;");
    std::size_t numbers = 0;
    for (const Token &t : toks)
        if (t.kind == Token::Kind::Number) {
            ++numbers;
            EXPECT_TRUE(t.text == "1'000'000" || t.text == "0xFF'FFu")
                << t.text;
        }
    EXPECT_EQ(numbers, 2u);
    EXPECT_EQ(toks.back().text, ";");
}

TEST(LintTokenizer, CharLiteralsStillCollapseAfterNumbers)
{
    // The digit-separator rule must not capture a real char literal
    // that merely follows a number.
    const auto toks = tokenize("f(7, 'x'); g('0');");
    std::size_t chars = 0;
    for (const Token &t : toks)
        if (t.kind == Token::Kind::Char)
            ++chars;
    EXPECT_EQ(chars, 2u);
    EXPECT_EQ(toks.back().text, ";");
}

TEST(LintTokenizer, KeepsScopeResolutionWhole)
{
    const auto toks = tokenize("std::mutex m; a ? b : c;");
    ASSERT_GE(toks.size(), 3u);
    EXPECT_EQ(toks[1].text, "::");
    int single_colons = 0;
    for (const Token &t : toks)
        if (t.text == ":")
            ++single_colons;
    EXPECT_EQ(single_colons, 1); // the ternary's, not halves of "::"
}

TEST(LintTokenizer, UnterminatedConstructsEndAtEof)
{
    EXPECT_NO_THROW(tokenize("/* never closed"));
    EXPECT_NO_THROW(tokenize("\"never closed"));
    EXPECT_NO_THROW(tokenize("R\"(never closed"));
    const auto toks = tokenize("int a; \"dangling");
    EXPECT_EQ(toks[0].text, "int");
}

TEST(LintIncludes, ScansQuotedAndSystemForms)
{
    const auto incs = scanIncludes("#include <mutex>\n"
                                   "  #  include \"common/mutex.hh\"\n"
                                   "// #include <thread>\n");
    // The //-commented line is skipped: it does not start with '#'.
    ASSERT_EQ(incs.size(), 2u);
    EXPECT_EQ(incs[0].path, "mutex");
    EXPECT_TRUE(incs[0].system);
    EXPECT_EQ(incs[0].line, 1);
    EXPECT_EQ(incs[1].path, "common/mutex.hh");
    EXPECT_FALSE(incs[1].system);
}

// ------------------------------------------------------------------ rules

TEST(LintRules, RawDoubleParamFlagsQuantityParams)
{
    const char *bad = "namespace thermctl {\n"
                      "void setAmbient(double ambient_temp_c);\n"
                      "double step(double power_w, double dt);\n"
                      "}\n";
    const auto rules = rulesFor("src/thermal/model.hh", bad);
    EXPECT_EQ(std::count(rules.begin(), rules.end(),
                         std::string("raw-double-param")),
              2); // ambient_temp_c and power_w; dt is fine
}

TEST(LintRules, RawDoubleParamIgnoresMembersAndOtherDirs)
{
    // Depth 0: a struct member initialiser, not a parameter.
    EXPECT_TRUE(rulesFor("src/control/pid.hh",
                         "struct Gains { double setpoint = 0.0; };")
                    .empty());
    // Same code in a non-physics directory is out of scope.
    EXPECT_TRUE(rulesFor("src/common/stats.hh",
                         "void observe(double power_sample);")
                    .empty());
    // Implementation files are out of scope (the API lives in headers).
    EXPECT_TRUE(rulesFor("src/thermal/model.cc",
                         "void setAmbient(double ambient_temp_c) {}")
                    .empty());
}

TEST(LintRules, UsingNamespaceOnlyFlagsHeaders)
{
    const char *src = "using namespace std;\n";
    EXPECT_TRUE(hasRule(rulesFor("src/sim/config.hh", src),
                        "using-namespace-header"));
    EXPECT_FALSE(hasRule(rulesFor("src/sim/config.cc", src),
                         "using-namespace-header"));
    // Inside a comment: not a finding.
    EXPECT_TRUE(rulesFor("src/sim/config.hh",
                         "// using namespace std; (don't)\n")
                    .empty());
}

TEST(LintRules, ReaderBoundsRequiresFailureStateCheck)
{
    const char *bad = "#include \"common/serialize.hh\"\n"
                      "bool decode(thermctl::ByteReader &r) {\n"
                      "  auto n = r.u64();\n"
                      "  return n != 0;\n"
                      "}\n";
    EXPECT_TRUE(
        hasRule(rulesFor("src/serve/frames.cc", bad), "reader-bounds"));

    const char *good = "#include \"common/serialize.hh\"\n"
                       "bool decode(thermctl::ByteReader &r) {\n"
                       "  auto n = r.u64();\n"
                       "  if (!r.ok() || n > r.remaining() / 8)\n"
                       "    return false;\n"
                       "  return true;\n"
                       "}\n";
    EXPECT_FALSE(
        hasRule(rulesFor("src/serve/frames.cc", good), "reader-bounds"));

    // The rule is scoped to serve/ and serialize code.
    EXPECT_FALSE(
        hasRule(rulesFor("src/sim/other.cc", bad), "reader-bounds"));
}

TEST(LintRules, NakedMutexFlagsStdPrimitivesAndIncludes)
{
    EXPECT_TRUE(hasRule(rulesFor("src/sim/pool.cc", "std::mutex m;"),
                        "naked-mutex"));
    EXPECT_TRUE(hasRule(rulesFor("src/sim/pool.cc",
                                 "std::lock_guard<std::mutex> l(m);"),
                        "naked-mutex"));
    EXPECT_TRUE(hasRule(rulesFor("src/sim/pool.cc",
                                 "std::condition_variable cv;"),
                        "naked-mutex"));
    EXPECT_TRUE(hasRule(rulesFor("src/sim/pool.cc", "#include <mutex>\n"),
                        "naked-mutex"));
    // The wrapper itself is the one sanctioned home.
    EXPECT_FALSE(hasRule(rulesFor("src/common/mutex.hh",
                                  "#include <mutex>\nstd::mutex m_;"),
                         "naked-mutex"));
    // The annotated wrappers don't trip it.
    EXPECT_FALSE(hasRule(rulesFor("src/sim/pool.cc",
                                  "thermctl::Mutex m;\n"
                                  "thermctl::MutexLock lock(m);"),
                         "naked-mutex"));
    // "mutex" inside a string or comment is not a use.
    EXPECT_FALSE(hasRule(rulesFor("src/sim/pool.cc",
                                  "const char *s = \"std::mutex\";\n"
                                  "// std::mutex commentary\n"),
                         "naked-mutex"));
}

TEST(LintRules, ThreadSpawnRequiresAnnotationHeader)
{
    const char *bad = "#include <thread>\n"
                      "void run() { std::thread t([] {}); t.join(); }\n";
    EXPECT_TRUE(hasRule(rulesFor("src/sim/pool.cc", bad),
                        "missing-thread-annotations"));

    const char *good = "#include <thread>\n"
                       "#include \"common/mutex.hh\"\n"
                       "void run() { std::thread t([] {}); t.join(); }\n";
    EXPECT_FALSE(hasRule(rulesFor("src/sim/pool.cc", good),
                         "missing-thread-annotations"));

    const char *good2 = "#include <thread>\n"
                        "#include \"common/thread_annotations.hh\"\n"
                        "void run() { std::thread t([] {}); t.join(); }\n";
    EXPECT_FALSE(hasRule(rulesFor("src/sim/pool.cc", good2),
                         "missing-thread-annotations"));
}

TEST(LintRules, FaultPointScopeFlagsProbesOutsideSrc)
{
    const char *probe =
        "void f() { auto fp = THERMCTL_FAULT_POINT(\"x.y\"); }\n";
    EXPECT_TRUE(hasRule(rulesFor("tests/test_thing.cc", probe),
                        "fault-point-scope"));
    EXPECT_TRUE(hasRule(rulesFor("bench/ablation_x.cc", probe),
                        "fault-point-scope"));
    // Product code is exactly where probes belong.
    EXPECT_FALSE(hasRule(rulesFor("src/serve/protocol.cc", probe),
                         "fault-point-scope"));
    // The token in a comment or string does not count.
    const char *mention =
        "// THERMCTL_FAULT_POINT is product-only\n"
        "const char *s = \"THERMCTL_FAULT_POINT\";\n";
    EXPECT_FALSE(hasRule(rulesFor("tests/test_thing.cc", mention),
                         "fault-point-scope"));
}

TEST(LintRules, RawNumberParseFlagsLibraryParsersEverywhere)
{
    for (const char *call :
         {"int p = std::stoi(text);\n", "long j = strtol(env, nullptr, 10);\n",
          "double d = std::stod(s, &used);\n", "int n = atoi(v.c_str());\n",
          "auto s = ::strtoull(v, nullptr, 10);\n"}) {
        for (const char *path :
             {"src/serve/client.cc", "tests/chaos/chaos_soak.cc",
              "bench/bench_util.cc", "tools/thermctl_x.cc"}) {
            EXPECT_TRUE(hasRule(rulesFor(path, call), "raw-number-parse"))
                << path << ": " << call;
        }
    }
    // parseFlag's own home may use whatever it likes.
    EXPECT_FALSE(hasRule(rulesFor("src/common/flags.hh",
                                  "int v = std::stoi(t);\n"),
                         "raw-number-parse"));
    // parseFlag itself, comments, strings, members, other namespaces
    // and bare mentions without a call are fine.
    const char *clean =
        "// std::stoi reads 80x as 80\n"
        "auto v = parseFlag<int>(\"--port\", text);\n"
        "const char *s = \"atoi(x)\";\n"
        "auto a = conv.stod(x);\n"
        "auto b = conv->atoi(x);\n"
        "auto c = mylib::strtol(x);\n"
        "int atof = 3;\n";
    EXPECT_FALSE(hasRule(rulesFor("src/serve/client.cc", clean),
                         "raw-number-parse"));
}

// -------------------------------------------------------------- allowlist

TEST(LintAllowlist, ParsesEntriesCommentsAndBlankLines)
{
    Allowlist allow;
    std::string error;
    ASSERT_TRUE(allow.parse("# header comment\n"
                            "\n"
                            "naked-mutex src/sim/pool.cc legacy, tracked\n"
                            "reader-bounds frames.cc\n",
                            error))
        << error;
    EXPECT_EQ(allow.size(), 2u);
}

TEST(LintAllowlist, RejectsUnknownRuleAndMissingSuffix)
{
    Allowlist allow;
    std::string error;
    EXPECT_FALSE(allow.parse("no-such-rule src/foo.cc\n", error));
    EXPECT_NE(error.find("no-such-rule"), std::string::npos);
    error.clear();
    EXPECT_FALSE(allow.parse("naked-mutex\n", error));
    EXPECT_NE(error.find("path suffix"), std::string::npos);
}

TEST(LintAllowlist, SuppressesBySuffixAndReportsStale)
{
    Allowlist allow;
    std::string error;
    ASSERT_TRUE(allow.parse("naked-mutex src/sim/pool.cc grandfathered\n"
                            "reader-bounds src/serve/never.cc stale\n",
                            error));

    Finding hit{"work/src/sim/pool.cc", 3, "naked-mutex", "m"};
    EXPECT_TRUE(allow.allows(hit));
    // Same path, different rule: not suppressed.
    Finding other{"work/src/sim/pool.cc", 3, "reader-bounds", "m"};
    EXPECT_FALSE(allow.allows(other));
    // Different file: not suppressed.
    Finding elsewhere{"src/sim/queue.cc", 3, "naked-mutex", "m"};
    EXPECT_FALSE(allow.allows(elsewhere));

    const auto stale = allow.unusedEntries();
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_NE(stale[0].find("never.cc"), std::string::npos);
}

TEST(LintAllowlist, SuffixMatchesWholePathComponents)
{
    Allowlist allow;
    std::string error;
    ASSERT_TRUE(allow.parse("fault-point-scope tests/test_fault.cc why\n",
                            error));
    auto allows = [&](const char *file) {
        return allow.allows({file, 1, "fault-point-scope", "m"});
    };
    EXPECT_TRUE(allows("tests/test_fault.cc"));
    EXPECT_TRUE(allows("repo/tests/test_fault.cc"));
    // A suffix that starts mid-component names a different file.
    EXPECT_FALSE(allows("mytests/test_fault.cc"));
    EXPECT_FALSE(allows("repo/mytests/test_fault.cc"));
}

// ----------------------------------------------------------------- output

TEST(LintOutput, TextAndJsonFormats)
{
    std::vector<Finding> findings{
        {"src/a.hh", 7, "naked-mutex", "msg with \"quotes\""}};
    EXPECT_EQ(formatText(findings),
              "src/a.hh:7: [naked-mutex] msg with \"quotes\"\n");
    const std::string json = formatJson(findings);
    EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
    EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
    EXPECT_EQ(formatJson({}), "[]\n");
}

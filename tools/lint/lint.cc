#include "lint/lint.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>

namespace thermctl::lint
{

namespace
{

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size()
           && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
contains(std::string_view s, std::string_view needle)
{
    return s.find(needle) != std::string_view::npos;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

} // namespace

// -------------------------------------------------------------- tokenizer

std::vector<Token>
tokenize(std::string_view src)
{
    std::vector<Token> tokens;
    std::size_t i = 0;
    int line = 1;

    auto advance = [&](std::size_t n) {
        for (std::size_t k = 0; k < n && i < src.size(); ++k, ++i) {
            if (src[i] == '\n')
                ++line;
        }
    };

    while (i < src.size()) {
        char c = src[i];

        if (c == '\n' || c == ' ' || c == '\t' || c == '\r' || c == '\v'
            || c == '\f') {
            advance(1);
            continue;
        }

        // Line comment.
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
            while (i < src.size() && src[i] != '\n')
                advance(1);
            continue;
        }

        // Block comment.
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
            advance(2);
            while (i < src.size()
                   && !(src[i] == '*' && i + 1 < src.size()
                        && src[i + 1] == '/'))
                advance(1);
            advance(2); // trailing "*/" (no-op at EOF)
            continue;
        }

        // Raw string literal: R"delim( ... )delim", with an optional
        // encoding prefix (u8R, uR, UR, LR). The prefix must be
        // consumed here: lexing it as an identifier would leave the
        // raw body to the escape-aware scanner, which desynchronizes
        // on any embedded quote.
        std::size_t raw_r = std::string_view::npos;
        if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"')
            raw_r = i;
        else if ((c == 'u' || c == 'U' || c == 'L') && i + 2 < src.size()
                 && src[i + 1] == 'R' && src[i + 2] == '"')
            raw_r = i + 1;
        else if (c == 'u' && i + 3 < src.size() && src[i + 1] == '8'
                 && src[i + 2] == 'R' && src[i + 3] == '"')
            raw_r = i + 2;
        if (raw_r != std::string_view::npos) {
            advance(raw_r - i); // skip the encoding prefix, if any
            int start_line = line;
            std::size_t d = i + 2;
            while (d < src.size() && src[d] != '(' && src[d] != '"'
                   && src[d] != '\n')
                ++d;
            if (d < src.size() && src[d] == '(') {
                std::string closer = ")";
                closer.append(src.substr(i + 2, d - (i + 2)));
                closer.push_back('"');
                advance(d + 1 - i);
                std::size_t end = src.find(closer, i);
                std::string body(
                    src.substr(i, end == std::string_view::npos
                                      ? src.size() - i
                                      : end - i));
                advance(body.size());
                advance(std::min(closer.size(), src.size() - i));
                tokens.push_back(
                    {Token::Kind::String, std::move(body), start_line});
                continue;
            }
            // "R" not followed by a raw literal: fall through as ident.
        }

        // Ordinary string / char literal (escape-aware).
        if (c == '"' || c == '\'') {
            int start_line = line;
            char quote = c;
            advance(1);
            std::string body;
            while (i < src.size() && src[i] != quote) {
                if (src[i] == '\\' && i + 1 < src.size()) {
                    body.push_back(src[i]);
                    advance(1);
                }
                body.push_back(src[i]);
                advance(1);
            }
            advance(1); // closing quote (no-op at EOF)
            tokens.push_back({quote == '"' ? Token::Kind::String
                                           : Token::Kind::Char,
                              std::move(body), start_line});
            continue;
        }

        // Identifier / keyword.
        if (isIdentStart(c)) {
            int start_line = line;
            std::size_t start = i;
            while (i < src.size() && isIdentChar(src[i]))
                advance(1);
            tokens.push_back({Token::Kind::Identifier,
                              std::string(src.substr(start, i - start)),
                              start_line});
            continue;
        }

        // Number (loose: digits plus the usual suffix/exponent soup).
        if (std::isdigit(static_cast<unsigned char>(c))
            || (c == '.' && i + 1 < src.size()
                && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
            int start_line = line;
            std::size_t start = i;
            while (i < src.size()
                   && (isIdentChar(src[i]) || src[i] == '.'
                       || (src[i] == '\'' && i + 1 < src.size()
                           && isIdentChar(src[i + 1]))
                       || ((src[i] == '+' || src[i] == '-') && i > start
                           && (src[i - 1] == 'e' || src[i - 1] == 'E'
                               || src[i - 1] == 'p' || src[i - 1] == 'P'))))
                advance(1);
            tokens.push_back({Token::Kind::Number,
                              std::string(src.substr(start, i - start)),
                              start_line});
            continue;
        }

        // "::" kept whole so "std :: mutex" matching stays trivial.
        if (c == ':' && i + 1 < src.size() && src[i + 1] == ':') {
            tokens.push_back({Token::Kind::Punct, "::", line});
            advance(2);
            continue;
        }

        tokens.push_back({Token::Kind::Punct, std::string(1, c), line});
        advance(1);
    }
    return tokens;
}

std::vector<Include>
scanIncludes(std::string_view src)
{
    std::vector<Include> includes;
    int line = 0;
    std::size_t pos = 0;
    while (pos <= src.size()) {
        ++line;
        std::size_t eol = src.find('\n', pos);
        std::string_view ln = src.substr(
            pos, eol == std::string_view::npos ? src.size() - pos : eol - pos);
        pos = eol == std::string_view::npos ? src.size() + 1 : eol + 1;

        std::size_t p = ln.find_first_not_of(" \t");
        if (p == std::string_view::npos || ln[p] != '#')
            continue;
        p = ln.find_first_not_of(" \t", p + 1);
        if (p == std::string_view::npos
            || ln.compare(p, 7, "include") != 0)
            continue;
        p = ln.find_first_not_of(" \t", p + 7);
        if (p == std::string_view::npos)
            continue;
        char open = ln[p];
        char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
        if (close == '\0')
            continue;
        std::size_t end = ln.find(close, p + 1);
        if (end == std::string_view::npos)
            continue;
        includes.push_back({std::string(ln.substr(p + 1, end - p - 1)),
                            open == '<', line});
    }
    return includes;
}

// ------------------------------------------------------------------ rules

namespace
{

bool
isHeaderPath(std::string_view path)
{
    return endsWith(path, ".hh") || endsWith(path, ".hpp")
           || endsWith(path, ".h");
}

bool
matchesStdName(const std::vector<Token> &toks, std::size_t i,
               std::string_view name)
{
    return i + 2 < toks.size() && toks[i].kind == Token::Kind::Identifier
           && toks[i].text == "std" && toks[i + 1].text == "::"
           && toks[i + 2].kind == Token::Kind::Identifier
           && toks[i + 2].text == name;
}

/**
 * raw-double-param: in public thermal/power/control/dtm headers, a
 * `double` parameter whose name smells like a physical quantity should
 * be one of the units.hh strong types instead. Parameters are
 * identified as `double <ident>` at parenthesis depth > 0; struct
 * members and locals at depth 0 are out of scope for this rule.
 */
void
checkRawDoubleParam(const std::string &path, const std::vector<Token> &toks,
                    std::vector<Finding> &findings)
{
    static constexpr std::array<std::string_view, 10> kQuantity = {
        "temp",  "kelvin", "celsius", "power",    "watt",
        "resis", "capac",  "setpoint", "joule",   "heat",
    };

    int depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == Token::Kind::Punct) {
            if (t.text == "(")
                ++depth;
            else if (t.text == ")")
                depth = std::max(0, depth - 1);
            continue;
        }
        if (depth == 0 || t.kind != Token::Kind::Identifier
            || t.text != "double")
            continue;
        // Accept `double &name` / `double *name` / `double const name`.
        std::size_t j = i + 1;
        while (j < toks.size()
               && ((toks[j].kind == Token::Kind::Punct
                    && (toks[j].text == "&" || toks[j].text == "*"))
                   || (toks[j].kind == Token::Kind::Identifier
                       && toks[j].text == "const")))
            ++j;
        if (j >= toks.size() || toks[j].kind != Token::Kind::Identifier)
            continue;
        std::string name = toLower(toks[j].text);
        for (std::string_view q : kQuantity) {
            if (contains(name, q)) {
                findings.push_back(
                    {path, t.line, "raw-double-param",
                     "parameter '" + toks[j].text
                         + "' is a raw double; use a units.hh strong type "
                           "(Kelvin, Celsius, Watts, KelvinPerWatt, "
                           "JoulePerKelvin, ...) so the unit is part of "
                           "the signature"});
                break;
            }
        }
    }
}

/** using-namespace-header: never at header scope. */
void
checkUsingNamespace(const std::string &path, const std::vector<Token> &toks,
                    std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind == Token::Kind::Identifier
            && toks[i].text == "using"
            && toks[i + 1].kind == Token::Kind::Identifier
            && toks[i + 1].text == "namespace") {
            findings.push_back(
                {path, toks[i].line, "using-namespace-header",
                 "'using namespace' in a header leaks into every includer; "
                 "qualify names or use a local alias instead"});
        }
    }
}

/**
 * reader-bounds: decode code built on ByteReader must consult the
 * reader's failure state (ok()/atEnd()); a decoder that never checks is
 * trusting hostile length prefixes.
 */
void
checkReaderBounds(const std::string &path, const std::vector<Token> &toks,
                  std::vector<Finding> &findings)
{
    int first_reader_line = 0;
    bool checks_bounds = false;
    for (const Token &t : toks) {
        if (t.kind != Token::Kind::Identifier)
            continue;
        if (t.text == "ByteReader" && first_reader_line == 0)
            first_reader_line = t.line;
        // ok_/pos_ cover ByteReader's own implementation file, which
        // maintains the failure state rather than querying it.
        if (t.text == "ok" || t.text == "atEnd" || t.text == "remaining"
            || t.text == "ok_")
            checks_bounds = true;
    }
    if (first_reader_line != 0 && !checks_bounds) {
        findings.push_back(
            {path, first_reader_line, "reader-bounds",
             "file decodes with ByteReader but never checks ok()/atEnd(); "
             "length-check before trusting any decoded count"});
    }
}

/**
 * naked-mutex: all locking in src/ goes through the annotated wrappers
 * (thermctl::Mutex / MutexLock / CondVar in common/mutex.hh) so Clang
 * Thread Safety Analysis can see it.
 */
void
checkNakedMutex(const std::string &path, const std::vector<Token> &toks,
                const std::vector<Include> &includes,
                std::vector<Finding> &findings)
{
    static constexpr std::array<std::string_view, 11> kBanned = {
        "mutex",       "timed_mutex",  "recursive_mutex",
        "shared_mutex", "lock_guard",  "unique_lock",
        "scoped_lock", "shared_lock",  "condition_variable",
        "condition_variable_any", "call_once",
    };

    for (const Include &inc : includes) {
        if (inc.system
            && (inc.path == "mutex" || inc.path == "shared_mutex"
                || inc.path == "condition_variable")) {
            findings.push_back(
                {path, inc.line, "naked-mutex",
                 "#include <" + inc.path
                     + "> outside common/mutex.hh; use thermctl::Mutex / "
                       "MutexLock / CondVar so thread-safety analysis "
                       "covers the locking"});
        }
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
        for (std::string_view b : kBanned) {
            if (matchesStdName(toks, i, b)) {
                findings.push_back(
                    {path, toks[i].line, "naked-mutex",
                     "std::" + std::string(b)
                         + " outside common/mutex.hh; use thermctl::Mutex "
                           "/ MutexLock / CondVar from common/mutex.hh"});
                break;
            }
        }
    }
}

/**
 * missing-thread-annotations: a file that spawns std::thread is part of
 * the concurrent stack and must include the annotated primitives so its
 * shared state can be GUARDED_BY-annotated.
 */
void
checkThreadAnnotations(const std::string &path,
                       const std::vector<Token> &toks,
                       const std::vector<Include> &includes,
                       std::vector<Finding> &findings)
{
    int thread_line = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (matchesStdName(toks, i, "thread")
            || matchesStdName(toks, i, "jthread")) {
            thread_line = toks[i].line;
            break;
        }
    }
    if (thread_line == 0)
        return;
    for (const Include &inc : includes) {
        if (endsWith(inc.path, "common/mutex.hh")
            || endsWith(inc.path, "common/thread_annotations.hh"))
            return;
    }
    findings.push_back(
        {path, thread_line, "missing-thread-annotations",
         "file spawns std::thread but includes neither common/mutex.hh "
         "nor common/thread_annotations.hh; shared state must be "
         "annotatable"});
}

/**
 * fault-point-scope: THERMCTL_FAULT_POINT probes are product-code
 * instrumentation and live only under src/. Tests and benches induce
 * failures by arming a FaultPlan against the probes that already exist;
 * a probe defined in test code would skew the faults-off build and is
 * never exercised in production.
 */
void
checkFaultPointScope(const std::string &path,
                     const std::vector<Token> &toks,
                     std::vector<Finding> &findings)
{
    for (const Token &t : toks) {
        if (t.kind == Token::Kind::Identifier
            && t.text == "THERMCTL_FAULT_POINT") {
            findings.push_back(
                {path, t.line, "fault-point-scope",
                 "THERMCTL_FAULT_POINT outside src/; fault probes are "
                 "product instrumentation — tests arm a FaultPlan "
                 "against existing probes instead of adding their own"});
        }
    }
}

/**
 * raw-number-parse: numbers in text go through parseFlag()
 * (common/flags.hh), which accepts the whole text or nothing. The C and
 * C++ library parsers read "80x" as 80 (std::sto* also throw, strto*
 * and ato* silently return 0), which is how bad ports, job counts and
 * probabilities slipped through unnoticed.
 */
void
checkRawNumberParse(const std::string &path, const std::vector<Token> &toks,
                    std::vector<Finding> &findings)
{
    static constexpr std::array<std::string_view, 21> kParsers = {
        "stoi",    "stol",    "stoll",     "stoul",     "stoull",
        "stof",    "stod",    "stold",     "strtol",    "strtoll",
        "strtoul", "strtoull", "strtof",   "strtod",    "strtold",
        "strtoimax", "strtoumax", "atoi",  "atol",      "atoll",
        "atof",
    };
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Identifier || toks[i + 1].text != "("
            || std::find(kParsers.begin(), kParsers.end(), t.text)
                   == kParsers.end())
            continue;
        // A member or another namespace's function of the same name is
        // not the library parser.
        if (i > 0
            && (toks[i - 1].text == "."
                || (toks[i - 1].text == ">" && i > 1
                    && toks[i - 2].text == "-")
                || (toks[i - 1].text == "::" && i > 1
                    && toks[i - 2].kind == Token::Kind::Identifier
                    && toks[i - 2].text != "std")))
            continue;
        findings.push_back(
            {path, t.line, "raw-number-parse",
             t.text + "() accepts a numeric prefix (\"80x\" reads as 80); "
                      "parse with parseFlag<T>() from common/flags.hh"});
    }
}

} // namespace

std::vector<Finding>
lintFile(const std::string &path, const std::vector<Token> &toks,
         const std::vector<Include> &includes)
{
    std::vector<Finding> findings;
    const bool header = isHeaderPath(path);
    const bool in_src = contains(path, "src/");

    if (header
        && (contains(path, "src/thermal/") || contains(path, "src/power/")
            || contains(path, "src/control/")
            || contains(path, "src/dtm/")))
        checkRawDoubleParam(path, toks, findings);

    if (header)
        checkUsingNamespace(path, toks, findings);

    if (contains(path, "src/serve/")
        || contains(path, "src/common/serialize"))
        checkReaderBounds(path, toks, findings);

    if (in_src && !endsWith(path, "common/mutex.hh")
        && !endsWith(path, "common/thread_annotations.hh"))
        checkNakedMutex(path, toks, includes, findings);

    if (in_src)
        checkThreadAnnotations(path, toks, includes, findings);

    if (!in_src)
        checkFaultPointScope(path, toks, findings);

    if (!endsWith(path, "common/flags.hh"))
        checkRawNumberParse(path, toks, findings);

    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return findings;
}

// ----------------------------------------------------------------- output

std::string
formatText(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings) {
        out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] "
               + f.message + "\n";
    }
    return out;
}

namespace
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
formatJson(const std::vector<Finding> &findings)
{
    std::string out = "[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i)
            out += ",";
        out += "\n  {\"file\": \"" + jsonEscape(f.file)
               + "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \""
               + jsonEscape(f.rule) + "\", \"message\": \""
               + jsonEscape(f.message) + "\"}";
    }
    out += findings.empty() ? "]\n" : "\n]\n";
    return out;
}

} // namespace thermctl::lint

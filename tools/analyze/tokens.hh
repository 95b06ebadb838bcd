/**
 * @file
 * Token-stream helpers shared by the analysis passes (analysis.cc and
 * dataflow.cc): punctuation and identifier tests and bracket matching
 * over lint::tokenize output.
 */

#ifndef THERMCTL_TOOLS_ANALYZE_TOKENS_HH
#define THERMCTL_TOOLS_ANALYZE_TOKENS_HH

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.hh"

namespace thermctl::analysis
{

inline bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size()
           && s.compare(0, prefix.size(), prefix) == 0;
}

inline bool
isPunct(const lint::Token &t, std::string_view text)
{
    return t.kind == lint::Token::Kind::Punct && t.text == text;
}

inline bool
isIdent(const lint::Token &t, std::string_view text)
{
    return t.kind == lint::Token::Kind::Identifier && t.text == text;
}

/** Names that can precede '(' without being a call/definition. */
inline bool
isControlKeyword(std::string_view s)
{
    static const std::set<std::string, std::less<>> kw = {
        "if",       "for",      "while",    "switch",        "catch",
        "return",   "sizeof",   "alignof",  "decltype",      "static_assert",
        "new",      "delete",   "throw",    "do",            "else",
        "case",     "default",  "break",    "continue",      "alignas",
        "noexcept", "co_return", "co_await",
    };
    return kw.count(s) != 0;
}

/** Index of the token matching the opener at `open` ("(" ↔ ")"). */
inline std::size_t
matchForward(const std::vector<lint::Token> &toks, std::size_t open)
{
    const std::string &o = toks[open].text;
    const std::string c = o == "(" ? ")" : (o == "[" ? "]" : "}");
    int depth = 0;
    for (std::size_t k = open; k < toks.size(); ++k) {
        if (toks[k].kind != lint::Token::Kind::Punct)
            continue;
        if (toks[k].text == o)
            ++depth;
        else if (toks[k].text == c && --depth == 0)
            return k;
    }
    return toks.size();
}

/**
 * Skip a template-argument group: `i` points at '<' directly after an
 * identifier. Returns the index past the matching '>', or `i` itself
 * when no balanced group closes before `stop` (i.e. the '<' was a
 * comparison, not template syntax).
 */
inline std::size_t
skipAngles(const std::vector<lint::Token> &toks, std::size_t i,
           std::size_t stop)
{
    int depth = 0;
    for (std::size_t k = i; k < stop; ++k) {
        if (toks[k].kind != lint::Token::Kind::Punct)
            continue;
        if (toks[k].text == "<")
            ++depth;
        else if (toks[k].text == ">" && --depth == 0)
            return k + 1;
        else if (toks[k].text == ";")
            break;
    }
    return i;
}

} // namespace thermctl::analysis

#endif // THERMCTL_TOOLS_ANALYZE_TOKENS_HH

#include "analyze/dataflow.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analyze/tokens.hh"

namespace thermctl::analysis
{

using lint::Finding;
using lint::Token;

namespace
{

// ------------------------------------------------------------------ CFG

/**
 * Recursive-descent CFG construction. Any structural surprise sets
 * `failed`, and buildCfg falls back to one straight-line block — order
 * is preserved there, so guard detection degrades gracefully instead
 * of crashing or looping.
 */
struct CfgBuilder
{
    const std::vector<Token> &toks;
    Cfg cfg;
    bool failed = false;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    explicit CfgBuilder(const std::vector<Token> &t) : toks(t) {}

    std::size_t newBlock()
    {
        cfg.blocks.emplace_back();
        return cfg.blocks.size() - 1;
    }

    void edge(std::size_t from, std::size_t to)
    {
        cfg.blocks[from].succs.push_back(to);
    }

    void addStmt(std::size_t block, std::size_t b, std::size_t e, bool cond)
    {
        if (b >= e)
            return;
        cfg.blocks[block].stmts.push_back({b, e, cond, toks[b].line});
    }

    /** Exit state of a parsed region: last block + fallthrough-alive. */
    struct Flow
    {
        std::size_t block;
        bool live;
    };

    /** Scan past one plain statement: to ';' at depth 0, groups skipped. */
    std::size_t statementEnd(std::size_t i, std::size_t e)
    {
        std::size_t k = i;
        while (k < e) {
            const Token &t = toks[k];
            if (t.kind == Token::Kind::Punct) {
                if (t.text == ";")
                    return k + 1;
                if (t.text == "(" || t.text == "[" || t.text == "{") {
                    std::size_t close = matchForward(toks, k);
                    if (close >= e) {
                        failed = true;
                        return e;
                    }
                    k = close + 1;
                    continue;
                }
                if (t.text == "}") {
                    failed = true;
                    return e;
                }
            }
            ++k;
        }
        return e;
    }

    /** Parse one statement starting at `i`; advances `i` past it. */
    Flow parseStmt(std::size_t cur, std::size_t &i, std::size_t e,
                   std::size_t brk, std::size_t cont)
    {
        if (failed || i >= e)
            return {cur, true};
        const Token &t = toks[i];

        if (isPunct(t, ";")) {
            ++i;
            return {cur, true};
        }
        if (isPunct(t, "{")) {
            const std::size_t close = matchForward(toks, i);
            if (close >= e) {
                failed = true;
                return {cur, true};
            }
            Flow f = parseSeq(cur, i + 1, close, brk, cont);
            i = close + 1;
            return f;
        }
        if (isIdent(t, "if"))
            return parseIf(cur, i, e, brk, cont);
        if (isIdent(t, "while"))
            return parseWhile(cur, i, e);
        if (isIdent(t, "for"))
            return parseFor(cur, i, e);
        if (isIdent(t, "do"))
            return parseDo(cur, i, e);
        if (isIdent(t, "switch"))
            return parseSwitch(cur, i, e, cont);
        if (isIdent(t, "try"))
            return parseTry(cur, i, e, brk, cont);
        if (isIdent(t, "return") || isIdent(t, "throw")
            || isIdent(t, "co_return")) {
            const std::size_t end = statementEnd(i, e);
            addStmt(cur, i, end, false);
            i = end;
            return {cur, false};
        }
        if (isIdent(t, "break")) {
            const std::size_t end = statementEnd(i, e);
            addStmt(cur, i, end, false);
            if (brk != npos)
                edge(cur, brk);
            i = end;
            return {cur, false};
        }
        if (isIdent(t, "continue")) {
            const std::size_t end = statementEnd(i, e);
            addStmt(cur, i, end, false);
            if (cont != npos)
                edge(cur, cont);
            i = end;
            return {cur, false};
        }
        if (isIdent(t, "else") || isIdent(t, "case")
            || isIdent(t, "default")) {
            // Only reachable on malformed nesting.
            failed = true;
            return {cur, true};
        }

        const std::size_t end = statementEnd(i, e);
        addStmt(cur, i, end, false);
        i = end;
        return {cur, true};
    }

    /** Expect '(' at or after `i` (skipping `constexpr`); parse group. */
    bool condGroup(std::size_t &i, std::size_t e, std::size_t &open,
                   std::size_t &close)
    {
        std::size_t j = i + 1;
        if (j < e && isIdent(toks[j], "constexpr"))
            ++j;
        if (j >= e || !isPunct(toks[j], "(")) {
            failed = true;
            return false;
        }
        open = j;
        close = matchForward(toks, j);
        if (close >= e) {
            failed = true;
            return false;
        }
        i = close + 1;
        return true;
    }

    Flow parseIf(std::size_t cur, std::size_t &i, std::size_t e,
                 std::size_t brk, std::size_t cont)
    {
        std::size_t open = 0, close = 0;
        if (!condGroup(i, e, open, close))
            return {cur, true};
        const std::size_t c = newBlock();
        edge(cur, c);
        addStmt(c, open + 1, close, true);

        const std::size_t then_b = newBlock();
        edge(c, then_b);
        Flow tf = parseStmt(then_b, i, e, brk, cont);
        if (failed)
            return {cur, true};

        if (i < e && isIdent(toks[i], "else")) {
            ++i;
            const std::size_t else_b = newBlock();
            edge(c, else_b);
            Flow ef = parseStmt(else_b, i, e, brk, cont);
            if (failed)
                return {cur, true};
            const std::size_t join = newBlock();
            bool live = false;
            if (tf.live) {
                edge(tf.block, join);
                live = true;
            }
            if (ef.live) {
                edge(ef.block, join);
                live = true;
            }
            return {join, live};
        }

        const std::size_t join = newBlock();
        edge(c, join); // condition-false path
        if (tf.live)
            edge(tf.block, join);
        return {join, true};
    }

    Flow parseWhile(std::size_t cur, std::size_t &i, std::size_t e)
    {
        std::size_t open = 0, close = 0;
        if (!condGroup(i, e, open, close))
            return {cur, true};
        const std::size_t c = newBlock();
        edge(cur, c);
        addStmt(c, open + 1, close, true);
        const std::size_t body = newBlock();
        const std::size_t exit = newBlock();
        edge(c, body);
        edge(c, exit);
        Flow bf = parseStmt(body, i, e, exit, c);
        if (failed)
            return {cur, true};
        if (bf.live)
            edge(bf.block, c);
        return {exit, true};
    }

    Flow parseFor(std::size_t cur, std::size_t &i, std::size_t e)
    {
        // The whole header (init; cond; step) is one condition
        // statement: precise enough for guard detection, and it keeps
        // range-for free of special cases.
        std::size_t open = 0, close = 0;
        if (!condGroup(i, e, open, close))
            return {cur, true};
        const std::size_t c = newBlock();
        edge(cur, c);
        addStmt(c, open + 1, close, true);
        const std::size_t body = newBlock();
        const std::size_t exit = newBlock();
        edge(c, body);
        edge(c, exit);
        Flow bf = parseStmt(body, i, e, exit, c);
        if (failed)
            return {cur, true};
        if (bf.live)
            edge(bf.block, c);
        return {exit, true};
    }

    Flow parseDo(std::size_t cur, std::size_t &i, std::size_t e)
    {
        ++i; // 'do'
        const std::size_t body = newBlock();
        const std::size_t c = newBlock();
        const std::size_t exit = newBlock();
        edge(cur, body);
        Flow bf = parseStmt(body, i, e, exit, c);
        if (failed)
            return {cur, true};
        if (bf.live)
            edge(bf.block, c);
        if (i >= e || !isIdent(toks[i], "while")) {
            failed = true;
            return {cur, true};
        }
        std::size_t open = 0, close = 0;
        if (!condGroup(i, e, open, close))
            return {cur, true};
        addStmt(c, open + 1, close, true);
        edge(c, body);
        edge(c, exit);
        if (i < e && isPunct(toks[i], ";"))
            ++i;
        return {exit, true};
    }

    Flow parseSwitch(std::size_t cur, std::size_t &i, std::size_t e,
                     std::size_t cont)
    {
        std::size_t open = 0, close = 0;
        if (!condGroup(i, e, open, close))
            return {cur, true};
        const std::size_t c = newBlock();
        edge(cur, c);
        addStmt(c, open + 1, close, true);

        if (i >= e || !isPunct(toks[i], "{")) {
            failed = true;
            return {cur, true};
        }
        const std::size_t body_close = matchForward(toks, i);
        if (body_close >= e) {
            failed = true;
            return {cur, true};
        }
        const std::size_t exit = newBlock();

        std::size_t pos = i + 1;
        std::size_t arm = npos;
        bool live = false;
        while (pos < body_close && !failed) {
            if (isIdent(toks[pos], "case") || isIdent(toks[pos], "default")) {
                // Scan the label to its ':' (groups skipped).
                std::size_t colon = pos + 1;
                while (colon < body_close && !isPunct(toks[colon], ":")) {
                    if (toks[colon].kind == Token::Kind::Punct
                        && (toks[colon].text == "(" || toks[colon].text == "["
                            || toks[colon].text == "{"))
                        colon = matchForward(toks, colon);
                    else
                        ++colon;
                }
                if (colon >= body_close) {
                    failed = true;
                    break;
                }
                const std::size_t nb = newBlock();
                edge(c, nb);
                if (arm != npos && live)
                    edge(arm, nb); // fallthrough
                arm = nb;
                live = true;
                pos = colon + 1;
                continue;
            }
            if (arm == npos) {
                // Statements before the first label never execute.
                arm = newBlock();
                live = true;
            }
            Flow f = parseStmt(arm, pos, body_close, exit, cont);
            arm = f.block;
            live = f.live;
        }
        if (failed)
            return {cur, true};
        if (arm != npos && live)
            edge(arm, exit);
        edge(c, exit); // conservative no-match path
        i = body_close + 1;
        return {exit, true};
    }

    Flow parseTry(std::size_t cur, std::size_t &i, std::size_t e,
                  std::size_t brk, std::size_t cont)
    {
        ++i; // 'try'
        const std::size_t before = cur;
        Flow tf = parseStmt(cur, i, e, brk, cont);
        if (failed)
            return {cur, true};
        const std::size_t join = newBlock();
        if (tf.live)
            edge(tf.block, join);
        while (i < e && isIdent(toks[i], "catch") && !failed) {
            std::size_t open = 0, close = 0;
            if (!condGroup(i, e, open, close))
                return {cur, true};
            const std::size_t handler = newBlock();
            edge(before, handler);
            Flow hf = parseStmt(handler, i, e, brk, cont);
            if (hf.live)
                edge(hf.block, join);
        }
        return {join, true};
    }

    Flow parseSeq(std::size_t cur, std::size_t b, std::size_t e,
                  std::size_t brk, std::size_t cont)
    {
        bool live = true;
        std::size_t i = b;
        std::size_t guard = 0;
        while (i < e && !failed) {
            if (++guard > toks.size() + 16) {
                failed = true; // no-progress backstop
                break;
            }
            if (!live) {
                // Dead code after return/break still gets parsed (its
                // sinks inherit every dominator, i.e. read as guarded).
                cur = newBlock();
                live = true;
            }
            const std::size_t before = i;
            Flow f = parseStmt(cur, i, e, brk, cont);
            if (i == before) {
                failed = true;
                break;
            }
            cur = f.block;
            live = f.live;
        }
        return {cur, live};
    }
};

} // namespace

Cfg
buildCfg(const std::vector<Token> &toks, std::size_t begin, std::size_t end)
{
    if (begin > end || end > toks.size()) {
        Cfg cfg;
        cfg.blocks.emplace_back();
        cfg.straight_line = true;
        return cfg;
    }
    CfgBuilder b(toks);
    const std::size_t entry = b.newBlock();
    b.parseSeq(entry, begin, end, CfgBuilder::npos, CfgBuilder::npos);
    if (!b.failed)
        return std::move(b.cfg);

    // Fallback: one block, top-level ';' splits, order preserved.
    Cfg cfg;
    cfg.straight_line = true;
    cfg.blocks.emplace_back();
    std::size_t i = begin;
    while (i < end) {
        std::size_t k = i;
        while (k < end && !isPunct(toks[k], ";")) {
            if (toks[k].kind == Token::Kind::Punct
                && (toks[k].text == "(" || toks[k].text == "["
                    || toks[k].text == "{")) {
                const std::size_t close = matchForward(toks, k);
                k = close >= end ? end : close + 1;
            } else {
                ++k;
            }
        }
        const std::size_t stop = std::min(k + 1, end);
        if (stop > i)
            cfg.blocks[0].stmts.push_back(
                {i, stop, false, toks[i].line});
        i = stop;
    }
    return cfg;
}

std::vector<std::vector<bool>>
dominators(const Cfg &cfg)
{
    const std::size_t n = cfg.blocks.size();
    std::vector<std::vector<std::size_t>> preds(n);
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t s : cfg.blocks[b].succs)
            preds[s].push_back(b);

    std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, true));
    if (n == 0)
        return dom;
    dom[0].assign(n, false);
    dom[0][0] = true;

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 1; b < n; ++b) {
            if (preds[b].empty())
                continue; // unreachable: keep the all-dominators init
            std::vector<bool> next(n, true);
            for (std::size_t p : preds[b])
                for (std::size_t d = 0; d < n; ++d)
                    next[d] = next[d] && dom[p][d];
            next[b] = true;
            if (next != dom[b]) {
                dom[b] = std::move(next);
                changed = true;
            }
        }
    }
    return dom;
}

// -------------------------------------------------- function indexing

std::vector<FuncDef>
indexFunctions(const std::vector<Token> &toks)
{
    std::vector<FuncDef> out;
    const std::size_t n = toks.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (toks[i].kind != Token::Kind::Identifier
            || !isPunct(toks[i + 1], "(") || isControlKeyword(toks[i].text))
            continue;
        const std::size_t close = matchForward(toks, i + 1);
        if (close >= n)
            continue;

        // Skip trailing qualifiers up to the body: const/noexcept/
        // override/final, THERMCTL_* annotation macros, trailing
        // return types, and constructor initializer lists.
        std::size_t after = close + 1;
        bool plausible = true;
        while (after < n && plausible) {
            const Token &q = toks[after];
            if (isIdent(q, "const") || isIdent(q, "noexcept")
                || isIdent(q, "override") || isIdent(q, "final")
                || isIdent(q, "mutable")) {
                ++after;
            } else if (q.kind == Token::Kind::Identifier
                       && startsWith(q.text, "THERMCTL_") && after + 1 < n
                       && isPunct(toks[after + 1], "(")) {
                after = matchForward(toks, after + 1) + 1;
            } else if (isPunct(q, "(")) {
                after = matchForward(toks, after) + 1; // noexcept(expr)
            } else if (isPunct(q, "-") && after + 1 < n
                       && isPunct(toks[after + 1], ">")) {
                after += 2; // trailing return type: scan to body
                while (after < n && !isPunct(toks[after], "{")
                       && !isPunct(toks[after], ";")) {
                    if (toks[after].kind == Token::Kind::Punct
                        && (toks[after].text == "("
                            || toks[after].text == "["))
                        after = matchForward(toks, after) + 1;
                    else
                        ++after;
                }
            } else if (isPunct(q, ":")) {
                ++after; // ctor initializer list: scan to body
                while (after < n && !isPunct(toks[after], "{")
                       && !isPunct(toks[after], ";")) {
                    if (toks[after].kind == Token::Kind::Punct
                        && (toks[after].text == "("
                            || toks[after].text == "["))
                        after = matchForward(toks, after) + 1;
                    else
                        ++after;
                }
            } else {
                break;
            }
        }
        if (after >= n || !isPunct(toks[after], "{"))
            continue;
        const std::size_t body_close = matchForward(toks, after);
        if (body_close >= n)
            continue;

        FuncDef fd;
        fd.name = toks[i].text;
        if (i >= 2 && isPunct(toks[i - 1], "::")
            && toks[i - 2].kind == Token::Kind::Identifier)
            fd.qualifier = toks[i - 2].text;
        fd.params_begin = i + 1;
        fd.params_end = close;
        fd.body_begin = after;
        fd.body_end = body_close;
        fd.line = toks[i].line;
        out.push_back(std::move(fd));
    }
    return out;
}

// ---------------------------------------------------- struct indexing

namespace
{

bool
isMemberSkipKeyword(std::string_view s)
{
    static const std::set<std::string, std::less<>> kw = {
        "using",  "typedef", "friend",    "static_assert", "enum",
        "public", "private", "protected", "operator",
    };
    return kw.count(s) != 0;
}

/**
 * True when `name (` at `k` can declare a named function: not a
 * keyword, not a macro (no lower-case letter), not a destructor and
 * not an out-of-class definition (`X::f`).
 */
bool
namesFunction(const std::vector<Token> &toks, std::size_t k)
{
    const std::string &name = toks[k].text;
    return !isControlKeyword(name)
           && std::any_of(name.begin(), name.end(),
                          [](char c) { return c >= 'a' && c <= 'z'; })
           && !(k > 0
                && (isPunct(toks[k - 1], "::") || isPunct(toks[k - 1], "~")));
}

/**
 * Parse one declaration starting at `i`, in a struct body or at
 * namespace scope, ending by `close`. Appends declared instance field
 * names to `fields`; when it declares a named function (not deleted,
 * not an operator or destructor), sets `function` to its name and
 * token range. Returns the index past the declaration (past ';', past
 * an inline body's closing '}', or past a preprocessor directive).
 */
std::size_t
parseMember(const std::vector<Token> &toks, std::size_t i, std::size_t close,
            std::vector<FieldDef> &fields, DeclDef &function)
{
    bool in_init = false;
    bool is_method = false;
    bool saw_paren_group = false;
    bool not_field = false; // static or templated
    bool deleted = false;
    std::size_t name_at = close;
    std::vector<FieldDef> names;

    std::size_t k = i;
    if (isPunct(toks[i], "#")) { // a directive, `\`-continued lines too
        for (int line = toks[k++].line;
             k < close
             && (toks[k].line == line || isPunct(toks[k - 1], "\\"));
             ++k)
            line = toks[k].line;
        return k;
    }
    while (k < close) {
        const Token &t = toks[k];
        if (t.kind == Token::Kind::Punct) {
            if (t.text == ";") {
                ++k;
                break;
            }
            if (t.text == "=") {
                in_init = true;
                deleted = deleted
                          || (k + 1 < close && isIdent(toks[k + 1], "delete"));
                ++k;
                continue;
            }
            if (t.text == ",") {
                in_init = false;
                ++k;
                continue;
            }
            if (t.text == "(") {
                saw_paren_group = true;
                k = matchForward(toks, k) + 1;
                continue;
            }
            if (t.text == "[") {
                k = matchForward(toks, k) + 1;
                continue;
            }
            if (t.text == "{") {
                k = matchForward(toks, k) + 1;
                if (is_method || (saw_paren_group && !in_init && names.empty())) {
                    // Inline method body ends the declaration; eat an
                    // optional trailing ';'.
                    if (k < close && isPunct(toks[k], ";"))
                        ++k;
                    break;
                }
                continue; // brace initializer
            }
            ++k;
            continue;
        }
        if (t.kind == Token::Kind::Identifier && !in_init) {
            if (t.text == "static" || t.text == "template") {
                // Not an instance field, but maybe a member function.
                not_field = true;
                ++k;
                if (k < close && isPunct(toks[k], "<"))
                    k = std::max(skipAngles(toks, k, close), k + 1);
                continue;
            }
            if (isMemberSkipKeyword(t.text) && names.empty()) {
                // Not an instance field; skip the whole declaration
                // (handles nested enum bodies via the group skips).
                while (k < close && !isPunct(toks[k], ";")) {
                    if (toks[k].kind == Token::Kind::Punct
                        && (toks[k].text == "(" || toks[k].text == "["
                            || toks[k].text == "{"))
                        k = matchForward(toks, k) + 1;
                    else
                        ++k;
                }
                return std::min(k + 1, close);
            }
            if ((t.text == "struct" || t.text == "class") && names.empty()) {
                // Nested type: indexed by the outer scan on its own;
                // here, skip to its body so a trailing declarator
                // (`struct Inner { ... } field;`) is still collected.
                ++k;
                while (k < close && !isPunct(toks[k], "{")
                       && !isPunct(toks[k], ";"))
                    ++k;
                if (k < close && isPunct(toks[k], "{"))
                    k = matchForward(toks, k) + 1;
                continue;
            }
            if (k + 1 < close) {
                const Token &nx = toks[k + 1];
                if (isPunct(nx, "<")) {
                    const std::size_t past = skipAngles(toks, k + 1, close);
                    if (past != k + 1) {
                        k = past; // template arguments of the type
                        continue;
                    }
                }
                if (isPunct(nx, "(")) {
                    if (!is_method && namesFunction(toks, k))
                        name_at = k;
                    is_method = true;
                    ++k;
                    continue;
                }
                if (isPunct(nx, ";") || isPunct(nx, ",") || isPunct(nx, "=")
                    || isPunct(nx, "{") || isPunct(nx, "["))
                    names.push_back({t.text, t.line});
            }
        }
        ++k;
    }

    k = std::min(std::max(k, i + 1), close);
    if (is_method && name_at < close && !deleted)
        function = {toks[name_at].text, toks[name_at].line, i, k};
    if (!is_method && !not_field)
        for (FieldDef &f : names)
            fields.push_back(std::move(f));
    return k;
}

/**
 * Parse the class definition whose class-key is at `i`: its fields,
 * its member functions and nested classes with their access.
 * @return false for a forward declaration, an elaborated type or an
 * anonymous class.
 */
bool
parseStruct(const std::vector<Token> &toks, std::size_t i, StructDef &sd)
{
    const std::size_t n = toks.size();
    std::size_t j = i + 1;
    if (j >= n || toks[j].kind != Token::Kind::Identifier)
        return false; // anonymous
    sd.name = toks[j].text;
    sd.line = toks[j].line;
    ++j;
    if (j < n && isIdent(toks[j], "final"))
        ++j;
    if (j < n && isPunct(toks[j], ":")) {
        ++j; // base clause
        while (j < n && !isPunct(toks[j], "{") && !isPunct(toks[j], ";")) {
            if (toks[j].kind == Token::Kind::Identifier && j + 1 < n
                && isPunct(toks[j + 1], "<")) {
                const std::size_t past = skipAngles(toks, j + 1, n);
                j = past != j + 1 ? past : j + 1;
            } else {
                ++j;
            }
        }
    }
    if (j >= n || !isPunct(toks[j], "{"))
        return false; // forward declaration / elaborated type
    const std::size_t close = matchForward(toks, j);
    if (close >= n)
        return false;
    sd.begin = i;
    sd.end = close + 1;

    bool is_public = isIdent(toks[i], "struct");
    std::size_t k = j + 1;
    while (k < close) {
        const Token &t = toks[k];
        if (t.kind == Token::Kind::Identifier
            && (t.text == "public" || t.text == "private"
                || t.text == "protected")
            && k + 1 < close && isPunct(toks[k + 1], ":")) {
            is_public = t.text == "public";
            k += 2;
            continue;
        }
        if (isIdent(t, "struct") || isIdent(t, "class"))
            sd.nested.push_back({t.text, t.line, k, k, is_public});
        DeclDef method;
        k = parseMember(toks, k, close, sd.fields, method);
        method.is_public = is_public;
        if (!method.name.empty() && method.name != sd.name)
            sd.methods.push_back(std::move(method));
    }
    return true;
}

/** Append class `sd` and its public members and nested classes. */
void
exportClass(const std::vector<Token> &toks, const StructDef &sd,
            const std::string &prefix, std::vector<DeclDef> &out)
{
    const std::string name = prefix + sd.name;
    out.push_back({name, sd.line, sd.begin, sd.end});
    for (const DeclDef &m : sd.methods)
        if (m.is_public)
            out.push_back({name + "::" + m.name, m.line, m.begin, m.end});
    for (const DeclDef &inner : sd.nested) {
        StructDef nested;
        if (inner.is_public && parseStruct(toks, inner.begin, nested))
            exportClass(toks, nested, name + "::", out);
    }
}

/** Append what the namespace-scope declarations in [i, close) export. */
void
exportScope(const std::vector<Token> &toks, std::size_t i, std::size_t close,
            std::vector<DeclDef> &out)
{
    std::vector<FieldDef> variables; // namespace-scope objects: unused
    while (i < close) {
        const Token &t = toks[i];
        if (isIdent(t, "namespace")) { // an alias falls through
            std::size_t j = i + 1;
            while (j < close && !isPunct(toks[j], "{")
                   && !isPunct(toks[j], ";"))
                ++j;
            if (j < close && isPunct(toks[j], "{")) {
                const std::size_t end = matchForward(toks, j);
                if (j > i + 1) // anonymous namespaces export nothing
                    exportScope(toks, j + 1, std::min(end, close), out);
                i = end + 1;
                continue;
            }
        }
        std::size_t head = i;
        if (isIdent(t, "template") && i + 1 < close
            && isPunct(toks[i + 1], "<"))
            head = skipAngles(toks, i + 1, close);
        StructDef sd;
        if (head < close
            && (isIdent(toks[head], "struct") || isIdent(toks[head], "class"))
            && parseStruct(toks, head, sd)) {
            exportClass(toks, sd, "", out);
            i = sd.end;
            continue;
        }
        DeclDef function;
        i = parseMember(toks, i, close, variables, function);
        if (!function.name.empty())
            out.push_back(std::move(function));
    }
}

} // namespace

std::vector<StructDef>
indexStructs(const std::vector<Token> &toks, const std::string &file)
{
    std::vector<StructDef> out;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "struct") && !isIdent(toks[i], "class"))
            continue;
        if (i > 0 && (isIdent(toks[i - 1], "enum")
                      || isIdent(toks[i - 1], "friend")))
            continue;
        StructDef sd;
        if (!parseStruct(toks, i, sd))
            continue;
        sd.file = file;
        out.push_back(std::move(sd));
    }
    return out;
}

std::vector<DeclDef>
indexExported(const std::vector<Token> &toks)
{
    std::vector<DeclDef> out;
    exportScope(toks, 0, toks.size(), out);
    return out;
}

// --------------------------------------------------------- alloc-bound

namespace
{

bool
isReaderReadMethod(std::string_view s)
{
    // ByteReader's read methods (src/common/serialize.hh).
    static const std::set<std::string, std::less<>> m = {
        "u8", "u32", "u64", "f64", "str",
    };
    return m.count(s) != 0;
}

bool
isDecodeName(std::string_view s)
{
    return startsWith(s, "decode") || startsWith(s, "deserialize");
}

/** How a value became attacker-controlled. */
enum class TaintKind
{
    ReaderRead, ///< assigned from a ByteReader read method
    DecodeOut,  ///< out-param of a decode*/deserialize* call
};

struct TaintInfo
{
    TaintKind kind = TaintKind::ReaderRead;
    std::size_t stmt_begin = 0; ///< token index of the tainting stmt
    bool taint_is_cond = false; ///< tainting stmt is a condition
    std::vector<std::string> guard_names; ///< DecodeOut: fn + status var
};

/** A (block, stmt) position inside a Cfg. */
struct StmtRef
{
    std::size_t block = 0;
    std::size_t stmt = 0;
};

/** Tokens that make a comparison look like a size bound. */
bool
stmtLooksLikeBound(const std::vector<Token> &toks, const CfgStmt &s)
{
    bool number = false, relational = false;
    for (std::size_t k = s.begin; k < s.end; ++k) {
        const Token &t = toks[k];
        if (t.kind == Token::Kind::Identifier) {
            if (t.text == "remaining" || t.text == "sizeof"
                || t.text == "size" || t.text == "length"
                || t.text == "capacity" || t.text == "empty"
                || t.text.find("Max") != std::string::npos
                || t.text.find("Min") != std::string::npos
                || t.text == "max" || t.text == "min")
                return true;
        } else if (t.kind == Token::Kind::Number) {
            number = true;
        } else if (t.kind == Token::Kind::Punct
                   && (t.text == "<" || t.text == ">")) {
            relational = true;
        }
    }
    return number && relational;
}

bool
stmtMentions(const std::vector<Token> &toks, const CfgStmt &s,
             std::string_view name)
{
    for (std::size_t k = s.begin; k < s.end; ++k)
        if (toks[k].kind == Token::Kind::Identifier && toks[k].text == name)
            return true;
    return false;
}

/** Last identifier before the first top-level assignment '='. */
std::size_t
assignedName(const std::vector<Token> &toks, const CfgStmt &s)
{
    std::size_t last_ident = static_cast<std::size_t>(-1);
    for (std::size_t k = s.begin; k < s.end; ++k) {
        const Token &t = toks[k];
        if (t.kind == Token::Kind::Punct) {
            if (t.text == "(" || t.text == "[" || t.text == "{") {
                k = matchForward(toks, k);
                if (k >= s.end)
                    break;
                continue;
            }
            if (t.text == "=") {
                const bool cmp =
                    (k + 1 < s.end && isPunct(toks[k + 1], "="))
                    || (k > s.begin && toks[k - 1].kind == Token::Kind::Punct
                        && toks[k - 1].text != "::"
                        && toks[k - 1].text.find_first_of("=!<>+-*/%&|^")
                               != std::string::npos);
                if (cmp) {
                    if (k + 1 < s.end && isPunct(toks[k + 1], "="))
                        ++k; // skip the second '=' of '=='
                    continue;
                }
                return last_ident;
            }
        } else if (t.kind == Token::Kind::Identifier) {
            last_ident = k;
        }
    }
    return static_cast<std::size_t>(-1);
}

struct Sink
{
    std::size_t arg_begin = 0; ///< token range of the size expression
    std::size_t arg_end = 0;
    std::string what;          ///< "reserve", "resize", "new[]", ctor name
    int line = 1;
};

/** Collect allocation sinks inside one statement. */
std::vector<Sink>
findSinks(const std::vector<Token> &toks, const CfgStmt &s)
{
    std::vector<Sink> sinks;
    for (std::size_t k = s.begin; k + 1 < s.end; ++k) {
        const Token &t = toks[k];
        if (t.kind != Token::Kind::Identifier)
            continue;
        if ((t.text == "reserve" || t.text == "resize")
            && isPunct(toks[k + 1], "(")) {
            const std::size_t close = matchForward(toks, k + 1);
            if (close < s.end)
                sinks.push_back({k + 2, close, t.text, t.line});
            continue;
        }
        if (t.text == "new") {
            // `new T[n]`: the first '[' after the type spelling.
            std::size_t m = k + 1;
            while (m < s.end
                   && (toks[m].kind == Token::Kind::Identifier
                       || isPunct(toks[m], "::")))
                ++m;
            if (m + 1 < s.end && isPunct(toks[m], "[")) {
                const std::size_t close = matchForward(toks, m);
                if (close < s.end)
                    sinks.push_back({m + 1, close, "new[]", t.line});
            }
            continue;
        }
        if ((t.text == "vector" || t.text == "string" || t.text == "deque"
             || t.text == "basic_string")
            && isPunct(toks[k + 1], "<")) {
            // `std::vector<T> name(count, ...)`: first ctor argument.
            const std::size_t past = skipAngles(toks, k + 1, s.end);
            if (past == k + 1 || past + 1 >= s.end)
                continue;
            if (toks[past].kind != Token::Kind::Identifier
                || !isPunct(toks[past + 1], "("))
                continue;
            const std::size_t close = matchForward(toks, past + 1);
            if (close >= s.end)
                continue;
            std::size_t first_end = past + 2;
            int depth = 0;
            while (first_end < close) {
                const Token &a = toks[first_end];
                if (a.kind == Token::Kind::Punct) {
                    if (a.text == "(" || a.text == "[" || a.text == "{")
                        ++depth;
                    else if (a.text == ")" || a.text == "]" || a.text == "}")
                        --depth;
                    else if (a.text == "," && depth == 0)
                        break;
                }
                ++first_end;
            }
            if (first_end > past + 2)
                sinks.push_back(
                    {past + 2, first_end, t.text + " constructor", t.line});
        }
    }
    return sinks;
}

} // namespace

std::vector<Finding>
checkAllocBound(const ProjectModel &model)
{
    std::vector<Finding> findings;
    for (const SourceFile &sf : model.files()) {
        const std::vector<Token> &toks = sf.tokens;
        for (const FuncDef &fd : indexFunctions(toks)) {
            // Reader variables: `ByteReader name` in params or body.
            std::set<std::string> readers;
            for (std::size_t k = fd.params_begin;
                 k + 1 < fd.body_end; ++k) {
                if (isIdent(toks[k], "ByteReader")) {
                    std::size_t m = k + 1;
                    if (m < fd.body_end && isPunct(toks[m], "&"))
                        ++m;
                    if (m < fd.body_end
                        && toks[m].kind == Token::Kind::Identifier)
                        readers.insert(toks[m].text);
                }
            }

            const Cfg cfg = buildCfg(toks, fd.body_begin + 1, fd.body_end);
            const std::vector<std::vector<bool>> dom = dominators(cfg);

            // Statement list in token order, remembering positions.
            std::vector<std::pair<const CfgStmt *, StmtRef>> stmts;
            for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
                for (std::size_t s = 0; s < cfg.blocks[b].stmts.size(); ++s)
                    stmts.push_back({&cfg.blocks[b].stmts[s], {b, s}});
            std::sort(stmts.begin(), stmts.end(),
                      [](const auto &a, const auto &b) {
                          return a.first->begin < b.first->begin;
                      });

            // ---- taint collection (token order) ----
            std::map<std::string, TaintInfo> taint;
            for (const auto &[st, ref] : stmts) {
                // a) `lhs = reader.u64(...)`
                const std::size_t lhs = assignedName(toks, *st);
                if (lhs != static_cast<std::size_t>(-1)) {
                    for (std::size_t k = lhs + 1; k + 3 < st->end; ++k) {
                        if (toks[k].kind == Token::Kind::Identifier
                            && readers.count(toks[k].text)
                            && (isPunct(toks[k + 1], ".")
                                || (isPunct(toks[k + 1], "-")
                                    && isPunct(toks[k + 2], ">")))) {
                            const std::size_t mth =
                                isPunct(toks[k + 1], ".") ? k + 2 : k + 3;
                            if (mth + 1 < st->end
                                && toks[mth].kind == Token::Kind::Identifier
                                && isReaderReadMethod(toks[mth].text)
                                && isPunct(toks[mth + 1], "(")) {
                                TaintInfo ti;
                                ti.kind = TaintKind::ReaderRead;
                                ti.stmt_begin = st->begin;
                                ti.taint_is_cond = st->is_cond;
                                taint[toks[lhs].text] = std::move(ti);
                                break;
                            }
                        }
                    }
                }

                // b) memcpy into a local inside a decode function
                //    (the trace decoder's header pattern).
                if (isDecodeName(fd.name)) {
                    for (std::size_t k = st->begin; k + 2 < st->end; ++k) {
                        if (isIdent(toks[k], "memcpy")
                            && isPunct(toks[k + 1], "(")) {
                            std::size_t m = k + 2;
                            if (m < st->end && isPunct(toks[m], "&"))
                                ++m;
                            if (m < st->end
                                && toks[m].kind == Token::Kind::Identifier) {
                                TaintInfo ti;
                                ti.kind = TaintKind::ReaderRead;
                                ti.stmt_begin = st->begin;
                                ti.taint_is_cond = st->is_cond;
                                taint[toks[m].text] = std::move(ti);
                            }
                        }
                    }
                }

                // c) out-params of decode*/deserialize* calls.
                for (std::size_t k = st->begin; k + 1 < st->end; ++k) {
                    if (toks[k].kind != Token::Kind::Identifier
                        || !isDecodeName(toks[k].text)
                        || !isPunct(toks[k + 1], "("))
                        continue;
                    const std::size_t close = matchForward(toks, k + 1);
                    if (close >= st->end)
                        continue;
                    std::vector<std::string> guards;
                    guards.push_back(toks[k].text);
                    if (lhs != static_cast<std::size_t>(-1) && lhs < k)
                        guards.push_back(toks[lhs].text);
                    // Args: last identifier of each top-level argument.
                    std::size_t arg_last = static_cast<std::size_t>(-1);
                    int depth = 0;
                    for (std::size_t m = k + 2; m <= close; ++m) {
                        const Token &a = toks[m];
                        const bool top_comma =
                            m == close
                            || (a.kind == Token::Kind::Punct
                                && a.text == "," && depth == 0);
                        if (top_comma) {
                            if (arg_last != static_cast<std::size_t>(-1)) {
                                const std::string &nm = toks[arg_last].text;
                                if (!readers.count(nm)
                                    && (arg_last + 1 >= close
                                        || !isPunct(toks[arg_last + 1],
                                                    "("))) {
                                    TaintInfo ti;
                                    ti.kind = TaintKind::DecodeOut;
                                    ti.stmt_begin = st->begin;
                                    ti.taint_is_cond = st->is_cond;
                                    ti.guard_names = guards;
                                    taint[nm] = std::move(ti);
                                }
                            }
                            arg_last = static_cast<std::size_t>(-1);
                            continue;
                        }
                        if (a.kind == Token::Kind::Punct) {
                            if (a.text == "(" || a.text == "["
                                || a.text == "{")
                                ++depth;
                            else if (a.text == ")" || a.text == "]"
                                     || a.text == "}")
                                --depth;
                        } else if (a.kind == Token::Kind::Identifier
                                   && depth == 0) {
                            arg_last = m;
                        }
                    }
                    k = close;
                }
            }

            // ---- sinks ----
            for (const auto &[st, ref] : stmts) {
                for (const Sink &sk : findSinks(toks, *st)) {
                    // A clamp anywhere in the size expression
                    // (std::min, std::clamp, k*Max*) is a guard.
                    bool clamp = false;
                    for (std::size_t m = sk.arg_begin; m < sk.arg_end; ++m) {
                        const Token &a = toks[m];
                        if (a.kind == Token::Kind::Identifier
                            && (a.text == "min" || a.text == "max"
                                || a.text == "clamp"
                                || a.text.find("Max") != std::string::npos
                                || a.text.find("Min") != std::string::npos))
                            clamp = true;
                    }

                    // Value uses: walk each member chain; a chain that
                    // ends in a call (x.size(), spec.points()) is a
                    // computed result, not a tainted count — except a
                    // ByteReader read, which is the rawest taint there
                    // is.
                    bool direct_read = false;
                    std::string tainted_name;
                    const TaintInfo *tainted = nullptr;
                    std::size_t m = sk.arg_begin;
                    while (m < sk.arg_end) {
                        if (toks[m].kind != Token::Kind::Identifier) {
                            ++m;
                            continue;
                        }
                        std::vector<std::size_t> comps{m};
                        std::size_t j = m;
                        while (true) {
                            if (j + 2 < sk.arg_end
                                && (isPunct(toks[j + 1], ".")
                                    || isPunct(toks[j + 1], "::"))
                                && toks[j + 2].kind
                                       == Token::Kind::Identifier) {
                                j += 2;
                                comps.push_back(j);
                            } else if (j + 3 < sk.arg_end
                                       && isPunct(toks[j + 1], "-")
                                       && isPunct(toks[j + 2], ">")
                                       && toks[j + 3].kind
                                              == Token::Kind::Identifier) {
                                j += 3;
                                comps.push_back(j);
                            } else {
                                break;
                            }
                        }
                        const bool is_call = j + 1 < sk.arg_end
                                             && isPunct(toks[j + 1], "(");
                        if (is_call) {
                            if (comps.size() >= 2
                                && isReaderReadMethod(toks[j].text)
                                && readers.count(toks[comps.front()].text))
                                direct_read = true;
                            m = j + 1; // call args scanned next rounds
                            continue;
                        }
                        for (std::size_t c : comps) {
                            auto it = taint.find(toks[c].text);
                            if (it != taint.end()
                                && it->second.stmt_begin < st->begin
                                && !tainted) {
                                tainted = &it->second;
                                tainted_name = toks[c].text;
                            }
                        }
                        m = j + 1;
                    }
                    if (clamp || (!tainted && !direct_read))
                        continue;

                    // Guard search: statements in strictly dominating
                    // blocks, plus earlier statements in the sink's
                    // own block.
                    bool guarded = false;
                    auto scanStmt = [&](const CfgStmt &g) {
                        if (guarded)
                            return;
                        if (tainted
                            && tainted->kind == TaintKind::DecodeOut) {
                            const bool self =
                                g.begin == tainted->stmt_begin;
                            if (self && !tainted->taint_is_cond)
                                return;
                            for (const std::string &nm :
                                 tainted->guard_names)
                                if (stmtMentions(toks, g, nm))
                                    guarded = true;
                            return;
                        }
                        if (tainted && g.begin == tainted->stmt_begin)
                            return; // the tainting read is no guard
                        if (tainted && !stmtMentions(toks, g,
                                                     tainted_name))
                            return;
                        if (!tainted)
                            return; // direct reads have no guard var
                        if (stmtLooksLikeBound(toks, g))
                            guarded = true;
                    };
                    for (std::size_t d = 0;
                         d < cfg.blocks.size() && !guarded; ++d) {
                        if (d == ref.block || !dom[ref.block][d])
                            continue;
                        for (const CfgStmt &g : cfg.blocks[d].stmts)
                            scanStmt(g);
                    }
                    for (std::size_t s2 = 0;
                         s2 < ref.stmt && !guarded; ++s2)
                        scanStmt(cfg.blocks[ref.block].stmts[s2]);
                    if (guarded)
                        continue;

                    Finding f;
                    f.file = sf.path;
                    f.line = sk.line;
                    f.rule = "alloc-bound";
                    if (direct_read && !tainted)
                        f.message = "allocation size for " + sk.what + " in "
                                    + fd.name
                                    + "() comes straight from a ByteReader "
                                      "read; clamp it or check remaining() "
                                      "first";
                    else
                        f.message =
                            "tainted size '" + tainted_name + "' ("
                            + (tainted->kind == TaintKind::DecodeOut
                                   ? "decode out-param"
                                   : "ByteReader read")
                            + ") reaches " + sk.what + " in " + fd.name
                            + "() without a dominating bound check "
                              "(compare against remaining(), a k*Max* "
                              "bound, or a byte-length cross-check)";
                    findings.push_back(std::move(f));
                }
            }
        }
    }
    return findings;
}

// ------------------------------------------------------ field-coverage

namespace
{

/** Roles a coverage function can play for a struct. */
enum class Role
{
    Digest = 0,
    Encode = 1,
    Decode = 2,
};

const char *
roleVerb(Role r)
{
    switch (r) {
    case Role::Digest:
        return "fed to the digest";
    case Role::Encode:
        return "encoded";
    default:
        return "decoded";
    }
}

/** Identifiers in [b, e) with template-argument groups skipped. */
std::vector<std::string>
identsOutsideAngles(const std::vector<Token> &toks, std::size_t b,
                    std::size_t e)
{
    std::vector<std::string> out;
    for (std::size_t k = b; k < e; ++k) {
        if (toks[k].kind != Token::Kind::Identifier)
            continue;
        if (k + 1 < e && isPunct(toks[k + 1], "<")) {
            const std::size_t past = skipAngles(toks, k + 1, e);
            if (past != k + 1) {
                out.push_back(toks[k].text);
                k = past - 1;
                continue;
            }
        }
        out.push_back(toks[k].text);
    }
    return out;
}

struct CoverageFn
{
    std::string name;
    std::string file;
    int line = 1;
};

struct RoleCoverage
{
    std::set<std::string> body_idents;
    std::vector<CoverageFn> fns;
};

} // namespace

std::vector<Finding>
checkFieldCoverage(const ProjectModel &model,
                   const std::set<std::string> &allowed_fields)
{
    // Struct index across the whole model (first definition wins).
    std::map<std::string, StructDef> structs;
    for (const SourceFile &sf : model.files())
        for (StructDef &sd : indexStructs(sf.tokens, sf.path))
            structs.emplace(sd.name, std::move(sd));

    // Helper types never impose coverage on themselves.
    static const std::set<std::string> kHelpers = {
        "HashStream", "ByteReader", "ByteWriter",
    };

    std::map<std::string, std::map<Role, RoleCoverage>> coverage;
    auto record = [&](const std::string &struct_name, Role role,
                      const SourceFile &sf, const FuncDef &fd) {
        RoleCoverage &rc = coverage[struct_name][role];
        for (std::size_t k = fd.body_begin; k < fd.body_end; ++k)
            if (sf.tokens[k].kind == Token::Kind::Identifier)
                rc.body_idents.insert(sf.tokens[k].text);
        rc.fns.push_back({fd.name, sf.path, fd.line});
    };

    for (const SourceFile &sf : model.files()) {
        for (const FuncDef &fd : indexFunctions(sf.tokens)) {
            // Struct types referenced by the parameter list (template
            // arguments excluded: vector<MicroOp> is not a MicroOp
            // coverage contract).
            std::vector<std::string> param_structs;
            for (const std::string &id : identsOutsideAngles(
                     sf.tokens, fd.params_begin + 1, fd.params_end))
                if (structs.count(id) && !kHelpers.count(id))
                    param_structs.push_back(id);

            bool hash_in_sig = false;
            for (std::size_t k = fd.params_begin; k < fd.params_end; ++k)
                if (isIdent(sf.tokens[k], "HashStream"))
                    hash_in_sig = true;
            bool hash_in_body = false;
            for (std::size_t k = fd.body_begin; k < fd.body_end; ++k)
                if (isIdent(sf.tokens[k], "HashStream"))
                    hash_in_body = true;

            const bool digest_fn =
                (fd.name == "feed" && hash_in_sig)
                || (hash_in_body && !param_structs.empty());
            if (digest_fn)
                for (const std::string &s : param_structs)
                    record(s, Role::Digest, sf, fd);

            if (startsWith(fd.name, "encode")
                || startsWith(fd.name, "serialize"))
                for (const std::string &s : param_structs)
                    record(s, Role::Encode, sf, fd);
            if (startsWith(fd.name, "decode")
                || startsWith(fd.name, "deserialize"))
                for (const std::string &s : param_structs)
                    record(s, Role::Decode, sf, fd);

            // Member encode()/decode(): the struct is *this.
            if (!fd.qualifier.empty() && structs.count(fd.qualifier)
                && !kHelpers.count(fd.qualifier)) {
                if (fd.name == "encode")
                    record(fd.qualifier, Role::Encode, sf, fd);
                else if (fd.name == "decode")
                    record(fd.qualifier, Role::Decode, sf, fd);
            }
        }
    }

    std::vector<Finding> findings;
    for (const auto &[struct_name, roles] : coverage) {
        auto sit = structs.find(struct_name);
        if (sit == structs.end())
            continue;
        const StructDef &sd = sit->second;
        for (const auto &[role, rc] : roles) {
            for (const FieldDef &fl : sd.fields) {
                if (allowed_fields.count(struct_name + "::" + fl.name))
                    continue;
                if (rc.body_idents.count(fl.name))
                    continue;
                const CoverageFn &fn = rc.fns.front();
                Finding f;
                f.file = fn.file;
                f.line = fn.line;
                f.rule = "field-coverage";
                f.message = "field '" + struct_name + "::" + fl.name
                            + "' (declared at " + sd.file + ":"
                            + std::to_string(fl.line) + ") is never "
                            + roleVerb(role) + " by " + fn.name
                            + "(); add it or exclude it with "
                              "--allow-field "
                            + struct_name + "::" + fl.name;
                findings.push_back(std::move(f));
            }
        }
    }
    return findings;
}

} // namespace thermctl::analysis

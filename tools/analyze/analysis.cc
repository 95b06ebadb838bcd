#include "analyze/analysis.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "analyze/dataflow.hh"

namespace thermctl::analysis
{

using lint::Finding;
using lint::Include;
using lint::Token;

namespace
{

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size()
           && s.compare(0, prefix.size(), prefix) == 0;
}

/** True when `path` is `suffix` or ends with "/" + `suffix`. */
bool
endsWithComponents(std::string_view path, std::string_view suffix)
{
    if (path.size() < suffix.size()
        || path.substr(path.size() - suffix.size()) != suffix)
        return false;
    return path.size() == suffix.size()
           || path[path.size() - suffix.size() - 1] == '/';
}

/** Collapse "./" and "a/../" segments; keep the path '/'-separated. */
std::string
normalizePath(std::string_view path)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t slash = path.find('/', pos);
        std::string seg(path.substr(pos, slash == std::string_view::npos
                                             ? path.size() - pos
                                             : slash - pos));
        pos = slash == std::string_view::npos ? path.size() + 1 : slash + 1;
        if (seg.empty() || seg == ".")
            continue;
        if (seg == "..") {
            if (!parts.empty() && parts.back() != "..")
                parts.pop_back();
            else
                parts.push_back("..");
            continue;
        }
        parts.push_back(std::move(seg));
    }
    std::string out;
    for (const std::string &p : parts) {
        if (!out.empty())
            out += '/';
        out += p;
    }
    return out;
}

std::string
dirName(std::string_view path)
{
    std::size_t slash = path.rfind('/');
    return slash == std::string_view::npos ? std::string()
                                           : std::string(path.substr(0, slash));
}

bool
isKeyword(std::string_view s)
{
    static const std::set<std::string, std::less<>> kw = {
        "if",     "for",    "while",        "switch",   "catch",
        "return", "sizeof", "alignof",      "decltype", "static_assert",
        "new",    "delete", "co_return",    "co_await", "throw",
    };
    return kw.count(s) != 0;
}

/** Index of the token matching the opener at `open` ("(" ↔ ")"). */
std::size_t
matchForward(const std::vector<Token> &toks, std::size_t open)
{
    const std::string &o = toks[open].text;
    const std::string c = o == "(" ? ")" : (o == "[" ? "]" : "}");
    int depth = 0;
    for (std::size_t k = open; k < toks.size(); ++k) {
        if (toks[k].kind != Token::Kind::Punct)
            continue;
        if (toks[k].text == o)
            ++depth;
        else if (toks[k].text == c && --depth == 0)
            return k;
    }
    return toks.size();
}

/**
 * Walk a member/scope chain backwards from the identifier at `i`
 * (`a.b->c::d` with d at `i` returns a's index), skipping balanced
 * call/index groups inside the chain (`f().g` reaches f).
 */
std::size_t
chainStart(const std::vector<Token> &toks, std::size_t i)
{
    std::size_t j = i;
    while (j >= 2 && toks[j - 1].kind == Token::Kind::Punct
           && (toks[j - 1].text == "::" || toks[j - 1].text == "."
               || toks[j - 1].text == "->")) {
        std::size_t k = j - 2;
        if (toks[k].kind == Token::Kind::Punct
            && (toks[k].text == ")" || toks[k].text == "]")) {
            const std::string closer = toks[k].text;
            const std::string opener = closer == ")" ? "(" : "[";
            int depth = 0;
            std::size_t m = k;
            for (;; --m) {
                if (toks[m].kind == Token::Kind::Punct) {
                    if (toks[m].text == closer)
                        ++depth;
                    else if (toks[m].text == opener && --depth == 0)
                        break;
                }
                if (m == 0)
                    break;
            }
            if (m == 0 || depth != 0
                || toks[m - 1].kind != Token::Kind::Identifier)
                break;
            k = m - 1;
        } else if (toks[k].kind != Token::Kind::Identifier) {
            break;
        }
        j = k;
    }
    return j;
}

/** True when the statement context before `start` drops a call's value. */
bool
statementInitial(const std::vector<Token> &toks, std::size_t start)
{
    if (start == 0)
        return true;
    const Token &p = toks[start - 1];
    if (p.kind == Token::Kind::Punct)
        return p.text == ";" || p.text == "{" || p.text == "}"
               || p.text == ":";
    if (p.kind == Token::Kind::Identifier)
        return p.text == "else" || p.text == "do";
    return false;
}

/** Best-effort return-type spelling before a definition at `start`. */
std::string
spellReturnType(const std::vector<Token> &toks, std::size_t start)
{
    // Walk back over type-ish tokens, stopping at statement boundaries.
    static const std::set<std::string, std::less<>> skip = {
        "static", "inline",   "constexpr", "virtual",
        "explicit", "friend", "extern",    "nodiscard",
    };
    std::vector<std::string> parts;
    std::size_t j = start;
    while (j > 0) {
        const Token &t = toks[j - 1];
        if (t.kind == Token::Kind::Punct) {
            if (t.text == "::" || t.text == "&" || t.text == "*"
                || t.text == "<" || t.text == ">" || t.text == ","
                || t.text == "[" || t.text == "]") {
                parts.push_back(t.text);
                --j;
                continue;
            }
            break;
        }
        if (t.kind != Token::Kind::Identifier)
            break;
        if (skip.count(t.text)) {
            --j;
            continue;
        }
        parts.push_back(t.text);
        --j;
        // Stop once a plain type name is consumed and the next-left
        // token is not a qualifier joiner.
        if (j > 0 && toks[j - 1].kind == Token::Kind::Punct
            && toks[j - 1].text != "::")
            break;
        if (j > 0 && toks[j - 1].kind == Token::Kind::Identifier)
            break;
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        if (!out.empty() && *it != "::" && *it != "<" && *it != ">"
            && *it != "&" && *it != "*" && out.back() != ':'
            && out.back() != '<')
            out += ' ';
        out += *it;
    }
    if (out.size() > 64)
        out.resize(64);
    return out;
}

struct HeldLock
{
    std::string name;
    int depth = 0; ///< brace depth at acquisition (pops when left)
};

/**
 * One pass over a file's tokens filling the model's symbol index, call
 * sites, and lock-acquisition edges.
 */
void
scanFileSymbols(const std::string &path, const std::vector<Token> &toks,
                std::vector<FunctionInfo> &functions,
                std::vector<CallSite> &calls,
                std::vector<LockEdge> &lock_edges,
                std::set<std::string> &nodiscard_names)
{
    int brace_depth = 0;
    bool nodiscard_pending = false;
    std::vector<HeldLock> held;
    std::vector<std::string> requires_pending;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];

        if (t.kind == Token::Kind::Punct) {
            if (t.text == "{") {
                ++brace_depth;
                // Entering a function body: REQUIRES'd mutexes are held
                // for its whole extent.
                for (const std::string &mu : requires_pending)
                    held.push_back({mu, brace_depth});
                requires_pending.clear();
                nodiscard_pending = false;
            } else if (t.text == "}") {
                brace_depth = std::max(0, brace_depth - 1);
                while (!held.empty() && held.back().depth > brace_depth)
                    held.pop_back();
                nodiscard_pending = false;
            } else if (t.text == ";") {
                requires_pending.clear();
                nodiscard_pending = false;
            }
            continue;
        }

        if (t.kind != Token::Kind::Identifier)
            continue;

        if (t.text == "nodiscard") {
            nodiscard_pending = true;
            continue;
        }

        // THERMCTL_REQUIRES(mu, ...) in a signature: the listed mutexes
        // are held by every caller — seed the held set for the body.
        if (t.text == "THERMCTL_REQUIRES" && i + 1 < toks.size()
            && toks[i + 1].text == "(") {
            const std::size_t close = matchForward(toks, i + 1);
            std::string arg;
            for (std::size_t k = i + 2; k < close; ++k) {
                if (toks[k].kind == Token::Kind::Punct
                    && toks[k].text == ",") {
                    if (!arg.empty())
                        requires_pending.push_back(arg);
                    arg.clear();
                } else {
                    arg += toks[k].text;
                }
            }
            if (!arg.empty())
                requires_pending.push_back(arg);
            i = close;
            continue;
        }

        // MutexLock <var>(<mutex-expr>): a scoped acquisition.
        if (t.text == "MutexLock" && i + 2 < toks.size()
            && toks[i + 1].kind == Token::Kind::Identifier
            && toks[i + 2].kind == Token::Kind::Punct
            && toks[i + 2].text == "(") {
            const std::size_t close = matchForward(toks, i + 2);
            std::string mutex;
            for (std::size_t k = i + 3; k < close; ++k)
                mutex += toks[k].text;
            if (!mutex.empty()) {
                for (const HeldLock &h : held)
                    if (h.name != mutex)
                        lock_edges.push_back(
                            {h.name, mutex, path, t.line});
                held.push_back({mutex, brace_depth});
            }
            i = close;
            continue;
        }

        // Identifier followed by "(": a call site or a definition.
        if (i + 1 >= toks.size() || toks[i + 1].kind != Token::Kind::Punct
            || toks[i + 1].text != "(" || isKeyword(t.text))
            continue;

        if (nodiscard_pending) {
            // The first name(...) after [[nodiscard]] is the declared
            // function.
            nodiscard_names.insert(t.text);
            nodiscard_pending = false;
        }

        const std::size_t close = matchForward(toks, i + 1);

        // Definition? Skip trailing qualifiers/annotations, expect "{".
        std::size_t after = close + 1;
        while (after < toks.size()) {
            const Token &a = toks[after];
            if (a.kind == Token::Kind::Identifier
                && (a.text == "const" || a.text == "noexcept"
                    || a.text == "override" || a.text == "final"
                    || startsWith(a.text, "THERMCTL_"))) {
                ++after;
                if (after < toks.size() && toks[after].text == "(")
                    after = matchForward(toks, after) + 1;
                continue;
            }
            break;
        }
        // A definition or declaration name may be qualified
        // (ByteWriter::f64) but never reached through `.`/`->`; the
        // return type sits immediately before the pure `::` chain.
        const std::size_t cs = chainStart(toks, i);
        bool pure_qualified = true;
        for (std::size_t k = cs; k < i && pure_qualified; ++k)
            pure_qualified = toks[k].kind == Token::Kind::Identifier
                             || (toks[k].kind == Token::Kind::Punct
                                 && toks[k].text == "::");
        const bool typed_before =
            pure_qualified && cs > 0
            && toks[cs - 1].kind == Token::Kind::Identifier
            && !isKeyword(toks[cs - 1].text)
            && toks[cs - 1].text != "else" && toks[cs - 1].text != "do";
        const bool is_definition =
            after < toks.size() && toks[after].kind == Token::Kind::Punct
            && toks[after].text == "{" && typed_before;
        // Declarations matter too: `void run(std::uint64_t n);` in a
        // header is the only evidence that `run` has a void overload.
        // (This also nets `Foo x(arg);` local variables as "functions
        // returning Foo" — harmless for a name-level index, since a
        // class type never spells "void".)
        const bool is_declaration =
            !is_definition && after < toks.size()
            && toks[after].kind == Token::Kind::Punct
            && toks[after].text == ";" && typed_before;
        if (is_definition || is_declaration) {
            FunctionInfo fn;
            fn.name = t.text;
            fn.return_type = spellReturnType(toks, cs);
            fn.file = path;
            fn.line = t.line;
            fn.nodiscard = nodiscard_names.count(t.text) != 0;
            functions.push_back(std::move(fn));
            continue;
        }

        // Call site: discarded when it is a whole expression statement.
        CallSite call;
        call.name = t.text;
        call.file = path;
        call.line = t.line;
        const std::size_t start = chainStart(toks, i);
        call.discarded = statementInitial(toks, start)
                         && close + 1 < toks.size()
                         && toks[close + 1].kind == Token::Kind::Punct
                         && toks[close + 1].text == ";";
        calls.push_back(std::move(call));
    }
}

/** Tarjan strongly-connected components over an adjacency list. */
std::vector<std::vector<std::size_t>>
stronglyConnected(const std::vector<std::vector<std::size_t>> &adj)
{
    const std::size_t n = adj.size();
    std::vector<int> index(n, -1), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::size_t> stack;
    std::vector<std::vector<std::size_t>> sccs;
    int next = 0;

    struct Frame
    {
        std::size_t v;
        std::size_t edge = 0;
    };

    for (std::size_t root = 0; root < n; ++root) {
        if (index[root] != -1)
            continue;
        std::vector<Frame> work{{root}};
        while (!work.empty()) {
            Frame &f = work.back();
            if (f.edge == 0) {
                index[f.v] = low[f.v] = next++;
                stack.push_back(f.v);
                on_stack[f.v] = true;
            }
            bool descended = false;
            while (f.edge < adj[f.v].size()) {
                const std::size_t w = adj[f.v][f.edge++];
                if (index[w] == -1) {
                    work.push_back({w});
                    descended = true;
                    break;
                }
                if (on_stack[w])
                    low[f.v] = std::min(low[f.v], index[w]);
            }
            if (descended)
                continue;
            if (low[f.v] == index[f.v]) {
                std::vector<std::size_t> scc;
                for (;;) {
                    const std::size_t w = stack.back();
                    stack.pop_back();
                    on_stack[w] = false;
                    scc.push_back(w);
                    if (w == f.v)
                        break;
                }
                sccs.push_back(std::move(scc));
            }
            const std::size_t v = f.v;
            work.pop_back();
            if (!work.empty())
                low[work.back().v] =
                    std::min(low[work.back().v], low[v]);
        }
    }
    return sccs;
}

/**
 * A representative cycle through `start` inside one SCC, as node
 * indices `start -> ... -> start` (first element repeated last).
 */
std::vector<std::size_t>
cycleThrough(const std::vector<std::vector<std::size_t>> &adj,
             const std::set<std::size_t> &scc, std::size_t start)
{
    std::vector<std::size_t> path{start};
    std::set<std::size_t> visited{start};
    // DFS restricted to the SCC; strong connectivity guarantees a path
    // back to `start`.
    std::vector<std::pair<std::size_t, std::size_t>> work{{start, 0}};
    while (!work.empty()) {
        auto &[v, e] = work.back();
        bool descended = false;
        while (e < adj[v].size()) {
            const std::size_t w = adj[v][e++];
            if (!scc.count(w))
                continue;
            if (w == start) {
                path.push_back(start);
                return path;
            }
            if (visited.count(w))
                continue;
            visited.insert(w);
            path.push_back(w);
            work.push_back({w, 0});
            descended = true;
            break;
        }
        if (!descended) {
            work.pop_back();
            path.pop_back();
        }
    }
    return {start, start}; // self-loop
}

} // namespace

// --------------------------------------------------------- ProjectModel

ProjectModel
ProjectModel::build(
    const std::vector<std::pair<std::string, std::string>> &files,
    const BuildOptions &opts)
{
    ProjectModel model;
    std::map<std::string, std::size_t> by_path;
    model.files_.reserve(files.size());
    for (const auto &[path, content] : files) {
        SourceFile f;
        f.path = normalizePath(path);
        f.includes = lint::scanIncludes(content);
        f.tokens = lint::tokenize(content);
        by_path.emplace(f.path, model.files_.size());
        model.files_.push_back(std::move(f));
    }

    for (SourceFile &f : model.files_) {
        for (std::size_t k = 0; k < f.includes.size(); ++k) {
            const Include &inc = f.includes[k];
            if (inc.system)
                continue;
            std::vector<std::string> candidates;
            const std::string dir = dirName(f.path);
            candidates.push_back(
                normalizePath(dir.empty() ? inc.path : dir + "/" + inc.path));
            for (const std::string &root : opts.roots)
                candidates.push_back(normalizePath(
                    root.empty() ? inc.path : root + "/" + inc.path));
            for (const std::string &cand : candidates) {
                auto it = by_path.find(cand);
                if (it != by_path.end()) {
                    f.edges.push_back(it->second);
                    f.edge_include.push_back(k);
                    break;
                }
            }
        }
    }

    for (const SourceFile &f : model.files_)
        scanFileSymbols(f.path, f.tokens, model.functions_, model.calls_,
                        model.lock_edges_, model.nodiscard_names_);
    return model;
}

std::size_t
ProjectModel::indexOf(std::string_view path) const
{
    const std::string norm = normalizePath(path);
    for (std::size_t i = 0; i < files_.size(); ++i)
        if (files_[i].path == norm)
            return i;
    return npos;
}

// ------------------------------------------------------------ LayerSpec

bool
LayerSpec::parse(std::string_view text, std::string &error)
{
    layers_.clear();
    int line = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        ++line;
        std::size_t eol = text.find('\n', pos);
        std::string ln(text.substr(pos, eol == std::string_view::npos
                                            ? text.size() - pos
                                            : eol - pos));
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;

        std::istringstream fields(ln);
        std::string head;
        fields >> head;
        if (head.empty() || head[0] == '#')
            continue;
        if (head != "layer") {
            error = "layers line " + std::to_string(line)
                    + ": expected 'layer <name> <prefix>...', got '" + head
                    + "'";
            return false;
        }
        Layer layer;
        fields >> layer.name;
        if (layer.name.empty()) {
            error = "layers line " + std::to_string(line)
                    + ": layer is missing a name";
            return false;
        }
        for (const Layer &prev : layers_) {
            if (prev.name == layer.name) {
                error = "layers line " + std::to_string(line)
                        + ": duplicate layer '" + layer.name + "'";
                return false;
            }
        }
        std::string prefix;
        while (fields >> prefix)
            layer.prefixes.push_back(normalizePath(prefix));
        if (layer.prefixes.empty()) {
            error = "layers line " + std::to_string(line) + ": layer '"
                    + layer.name + "' has no path prefixes";
            return false;
        }
        layers_.push_back(std::move(layer));
    }
    return true;
}

int
LayerSpec::layerOf(std::string_view path) const
{
    int best = -1;
    std::size_t best_len = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        for (const std::string &prefix : layers_[i].prefixes) {
            if (prefix.size() < best_len || !startsWith(path, prefix))
                continue;
            // Prefix must end at a path-component boundary.
            if (path.size() > prefix.size()
                && path[prefix.size()] != '/')
                continue;
            best = static_cast<int>(i);
            best_len = prefix.size();
        }
    }
    return best;
}

// --------------------------------------------------------- MustCheckSet

bool
MustCheckSet::matches(std::string_view name) const
{
    for (const std::string &e : exact)
        if (name == e)
            return true;
    for (const std::string &p : prefixes)
        if (startsWith(name, p))
            return true;
    return false;
}

void
MustCheckSet::add(std::string_view entry)
{
    if (!entry.empty() && entry.back() == '*')
        prefixes.emplace_back(entry.substr(0, entry.size() - 1));
    else
        exact.emplace_back(entry);
}

MustCheckSet
MustCheckSet::defaults()
{
    MustCheckSet set;
    // Frame / socket I/O: the PR-5 handleFrame hang was an ignored
    // writeFrame result.
    set.exact = {"writeFrame",     "readFully",       "readFrame",
                 "loadCacheEntry", "validCacheBytes", "sweepCacheLookup"};
    // Every encoder/decoder pair: a dropped decode status means
    // trusting uninitialized output.
    set.prefixes = {"encode", "decode", "serialize", "deserialize"};
    return set;
}

// ---------------------------------------------------------------- passes

const std::vector<std::string> &
analysisRuleIds()
{
    static const std::vector<std::string> ids = {
        "raw-double-param",
        "using-namespace-header",
        "reader-bounds",
        "naked-mutex",
        "missing-thread-annotations",
        "fault-point-scope",
        "raw-number-parse",
        "layering",
        "include-cycle",
        "unchecked-return",
        "lock-order",
        "alloc-bound",
        "field-coverage",
    };
    return ids;
}

bool
Allowlist::parse(std::string_view text, std::string &error)
{
    const std::vector<std::string> &valid_ids = analysisRuleIds();
    entries_.clear();
    int line = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        ++line;
        std::size_t eol = text.find('\n', pos);
        std::string ln(text.substr(pos, eol == std::string_view::npos
                                            ? text.size() - pos
                                            : eol - pos));
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;

        std::istringstream fields(ln);
        std::string rule, suffix;
        fields >> rule;
        if (rule.empty() || rule[0] == '#')
            continue;
        if (std::find(valid_ids.begin(), valid_ids.end(), rule)
            == valid_ids.end()) {
            error = "allowlist line " + std::to_string(line)
                    + ": unknown rule id '" + rule + "'";
            return false;
        }
        fields >> suffix;
        if (suffix.empty()) {
            error = "allowlist line " + std::to_string(line) + ": rule '"
                    + rule + "' is missing a path suffix";
            return false;
        }
        entries_.push_back({rule, suffix, false});
    }
    return true;
}

bool
Allowlist::allows(const Finding &f) const
{
    for (const Entry &e : entries_) {
        if (e.rule == f.rule && endsWithComponents(f.file, e.path_suffix)) {
            e.used = true;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
Allowlist::unusedEntries() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_)
        if (!e.used)
            out.push_back(e.rule + " " + e.path_suffix);
    return out;
}

std::vector<Finding>
checkLayering(const ProjectModel &model, const LayerSpec &spec)
{
    std::vector<Finding> findings;
    if (spec.empty())
        return findings;
    for (const SourceFile &f : model.files()) {
        const int from = spec.layerOf(f.path);
        if (from < 0) {
            findings.push_back(
                {f.path, 1, "layering",
                 "file matches no layer in the layers spec; add its "
                 "directory to .thermctl-layers"});
            continue;
        }
        for (std::size_t e = 0; e < f.edges.size(); ++e) {
            const SourceFile &g = model.files()[f.edges[e]];
            const int to = spec.layerOf(g.path);
            if (to < 0 || to <= from)
                continue;
            const Include &inc = f.includes[f.edge_include[e]];
            findings.push_back(
                {f.path, inc.line, "layering",
                 "layer '" + spec.layers()[from].name + "' file includes '"
                     + g.path + "' from higher layer '"
                     + spec.layers()[to].name
                     + "'; dependencies must point down the layering"});
        }
    }
    return findings;
}

std::vector<Finding>
checkIncludeCycles(const ProjectModel &model)
{
    std::vector<Finding> findings;
    std::vector<std::vector<std::size_t>> adj(model.files().size());
    for (std::size_t i = 0; i < model.files().size(); ++i)
        adj[i] = model.files()[i].edges;

    for (const std::vector<std::size_t> &scc : stronglyConnected(adj)) {
        bool cyclic = scc.size() > 1;
        if (scc.size() == 1) {
            for (std::size_t w : adj[scc[0]])
                if (w == scc[0])
                    cyclic = true;
        }
        if (!cyclic)
            continue;
        // Anchor at the lexicographically-first member for determinism.
        std::set<std::size_t> members(scc.begin(), scc.end());
        std::size_t anchor = scc[0];
        for (std::size_t v : scc)
            if (model.files()[v].path < model.files()[anchor].path)
                anchor = v;
        const std::vector<std::size_t> cycle =
            cycleThrough(adj, members, anchor);
        std::string chain;
        for (std::size_t v : cycle) {
            if (!chain.empty())
                chain += " -> ";
            chain += model.files()[v].path;
        }
        // Line: the anchor's include that stays inside the cycle.
        const SourceFile &a = model.files()[anchor];
        int line = 1;
        for (std::size_t e = 0; e < a.edges.size(); ++e) {
            if (members.count(a.edges[e])) {
                line = a.includes[a.edge_include[e]].line;
                break;
            }
        }
        findings.push_back({a.path, line, "include-cycle",
                            "include cycle: " + chain});
    }
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &x, const Finding &y) {
                         return x.file < y.file;
                     });
    return findings;
}

std::vector<Finding>
checkUncheckedReturns(const ProjectModel &model, const MustCheckSet &must)
{
    // The symbol index tempers the name-based matching with return
    // types. A must-check name whose every known definition returns
    // void (e.g. the encodePoint(ByteWriter&, ...) helpers matched by
    // the encode* prefix) has no result to check and is exempt. A
    // [[nodiscard]] name is auto-flagged only while no definition of
    // that name returns void: once an unrelated void overload shares
    // the name (ByteWriter::str vs the [[nodiscard]] ByteReader::str),
    // a token-level tool cannot tell the call sites apart, so the
    // per-overload enforcement is left to the compiler's
    // -Wunused-result and the name drops out of this pass.
    std::set<std::string, std::less<>> void_ret, non_void;
    for (const FunctionInfo &fn : model.functions()) {
        if (fn.return_type == "void")
            void_ret.insert(fn.name);
        else
            non_void.insert(fn.name);
    }

    std::vector<Finding> findings;
    for (const CallSite &call : model.calls()) {
        if (!call.discarded)
            continue;
        const bool has_void_def = void_ret.count(call.name) != 0;
        const bool all_void =
            has_void_def && non_void.count(call.name) == 0;
        const bool nodiscard = !has_void_def
                               && model.nodiscardNames().count(call.name)
                                      != 0;
        if (!nodiscard && (!must.matches(call.name) || all_void))
            continue;
        findings.push_back(
            {call.file, call.line, "unchecked-return",
             "result of '" + call.name + "' is discarded"
                 + (nodiscard ? " (declared [[nodiscard]])" : "")
                 + "; handle the failure or cast to (void) with a "
                   "justifying comment"});
    }
    return findings;
}

std::vector<Finding>
checkLockOrder(const ProjectModel &model)
{
    std::vector<Finding> findings;

    // Deterministic node numbering: sorted mutex names.
    std::set<std::string> names;
    for (const LockEdge &e : model.lockEdges()) {
        names.insert(e.held);
        names.insert(e.acquired);
    }
    std::vector<std::string> nodes(names.begin(), names.end());
    auto indexOf = [&](const std::string &n) {
        return static_cast<std::size_t>(
            std::lower_bound(nodes.begin(), nodes.end(), n)
            - nodes.begin());
    };

    std::vector<std::vector<std::size_t>> adj(nodes.size());
    // edge -> a representative acquisition site, for the diagnostic
    std::map<std::pair<std::size_t, std::size_t>, const LockEdge *> sites;
    for (const LockEdge &e : model.lockEdges()) {
        const std::size_t u = indexOf(e.held), v = indexOf(e.acquired);
        if (!sites.count({u, v})) {
            adj[u].push_back(v);
            sites[{u, v}] = &e;
        }
    }
    for (auto &out : adj)
        std::sort(out.begin(), out.end());

    for (const std::vector<std::size_t> &scc : stronglyConnected(adj)) {
        bool cyclic = scc.size() > 1;
        if (scc.size() == 1) {
            for (std::size_t w : adj[scc[0]])
                if (w == scc[0])
                    cyclic = true;
        }
        if (!cyclic)
            continue;
        std::set<std::size_t> members(scc.begin(), scc.end());
        std::size_t anchor = *std::min_element(
            scc.begin(), scc.end(), [&](std::size_t x, std::size_t y) {
                return nodes[x] < nodes[y];
            });
        const std::vector<std::size_t> cycle =
            cycleThrough(adj, members, anchor);
        std::string chain;
        for (std::size_t v : cycle) {
            if (!chain.empty())
                chain += " -> ";
            chain += nodes[v];
        }
        // Anchor the finding at the first edge of the cycle.
        const LockEdge *site = nullptr;
        if (cycle.size() >= 2)
            site = sites[{cycle[0], cycle[1]}];
        findings.push_back(
            {site ? site->file : "<lock-graph>", site ? site->line : 1,
             "lock-order",
             "potential deadlock: lock-order cycle " + chain
                 + " (acquisition order must be globally consistent)"});
    }
    return findings;
}

std::vector<Finding>
analyzeProject(const ProjectModel &model, const LayerSpec &spec,
               const MustCheckSet &must)
{
    return analyzeProject(model, spec, must, AnalyzeOptions{});
}

bool
AnalyzeOptions::wants(std::string_view id) const
{
    if (passes.empty())
        return true;
    for (const std::string &p : passes)
        if (p == id)
            return true;
    return false;
}

std::vector<Finding>
analyzeProject(const ProjectModel &model, const LayerSpec &spec,
               const MustCheckSet &must, const AnalyzeOptions &opts)
{
    std::vector<Finding> findings;
    auto take = [&](std::vector<Finding> &&more) {
        for (Finding &f : more)
            findings.push_back(std::move(f));
    };
    for (const SourceFile &file : model.files()) {
        for (Finding &f :
             lint::lintFile(file.path, file.tokens, file.includes)) {
            if (opts.wants(f.rule))
                findings.push_back(std::move(f));
        }
    }
    if (opts.wants("layering"))
        take(checkLayering(model, spec));
    if (opts.wants("include-cycle"))
        take(checkIncludeCycles(model));
    if (opts.wants("unchecked-return"))
        take(checkUncheckedReturns(model, must));
    if (opts.wants("lock-order"))
        take(checkLockOrder(model));
    if (opts.wants("alloc-bound"))
        take(checkAllocBound(model));
    if (opts.wants("field-coverage"))
        take(checkFieldCoverage(model, opts.allowed_fields));
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         return a.line < b.line;
                     });
    return findings;
}

} // namespace thermctl::analysis

/**
 * @file
 * thermctl-deepcheck CLI: the per-file project rules and the
 * whole-project static analysis over the thermctl source tree (see
 * tools/analyze/analysis.hh).
 *
 * Usage:
 *   thermctl_analyze [--layers FILE] [--allowlist FILE]
 *                    [--must-check NAME[*]]... [--root PREFIX]...
 *                    [--exclude SUBSTR]... [--pass RULE]...
 *                    [--allow-field Struct::field]... [--json] [--ci]
 *                    [--list-rules] PATH...
 *
 * One invocation builds a single project model over *all* the files
 * it is given — include-graph passes only see edges between files of
 * the same invocation, so run it over the whole tree (scripts/check.sh
 * --stage analyze does:
 * `thermctl_analyze --ci --json src/ tools/ tests/ bench/ examples/
 * --exclude tests/analyze/fixtures`).
 *
 * --layers defaults to `.thermctl-layers` in the current directory when
 * that file exists; without a layers spec the layering pass is skipped
 * (cycle detection still runs). --must-check entries extend the
 * built-in seed set; a trailing '*' makes an entry a prefix. --root
 * replaces the default include-resolution roots (src, tools). --pass
 * (repeatable, validated against --list-rules) restricts the run to
 * named passes so single-pass runs are scriptable; --allow-field
 * excludes one "Struct::field" from the field-coverage pass. Exit
 * status: 0 clean, 1 findings (or, under --ci, stale allowlist
 * entries), 2 usage or I/O error.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analysis.hh"
#include "lint/lint.hh"

namespace fs = std::filesystem;
using namespace thermctl::analysis; // tool main, not a header
using thermctl::lint::Finding;

namespace
{

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".hpp" || ext == ".h" || ext == ".cc"
           || ext == ".cpp";
}

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return !in.bad();
}

void
usage(std::ostream &os)
{
    os << "usage: thermctl_analyze [--layers FILE] [--allowlist FILE]\n"
          "                        [--must-check NAME[*]]... [--root "
          "PREFIX]...\n"
          "                        [--exclude SUBSTR]... [--pass RULE]...\n"
          "                        [--allow-field Struct::field]...\n"
          "                        [--json] [--ci] [--list-rules] PATH...\n"
          "Per-file project rules (raw-double-param, naked-mutex, ...)"
          " plus\nwhole-project static analysis: include-graph layering + "
          "cycles,\nunchecked must-check/[[nodiscard]] returns, static "
          "lock-order\nauditing, tainted-allocation bounds "
          "(alloc-bound), and struct\nfield-coverage of "
          "digest/encode/decode bodies (field-coverage).\nRun it over "
          "the whole tree in one invocation.\n"
          "--pass: run only the named passes (see --list-rules).\n"
          "--allow-field: exclude Struct::field from field-coverage.\n"
          "--ci: stale allowlist entries fail the run (exit 1).\n"
          "Exit: 0 clean, 1 findings, 2 usage/I-O error.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::vector<std::string> excludes;
    std::string allowlist_path;
    std::string layers_path;
    bool layers_explicit = false;
    bool json = false;
    bool ci = false;
    MustCheckSet must = MustCheckSet::defaults();
    BuildOptions build_opts;
    AnalyzeOptions analyze_opts;
    bool roots_overridden = false;

    auto needsValue = [&](int &i, const std::string &arg) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "thermctl_analyze: " << arg << " needs a value\n";
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--ci") {
            ci = true;
        } else if (arg == "--list-rules") {
            for (const std::string &id : analysisRuleIds())
                std::cout << id << "\n";
            return 0;
        } else if (arg == "--allowlist") {
            const char *v = needsValue(i, arg);
            if (!v)
                return 2;
            allowlist_path = v;
        } else if (arg == "--layers") {
            const char *v = needsValue(i, arg);
            if (!v)
                return 2;
            layers_path = v;
            layers_explicit = true;
        } else if (arg == "--must-check") {
            const char *v = needsValue(i, arg);
            if (!v)
                return 2;
            must.add(v);
        } else if (arg == "--root") {
            const char *v = needsValue(i, arg);
            if (!v)
                return 2;
            if (!roots_overridden) {
                build_opts.roots.clear();
                roots_overridden = true;
            }
            build_opts.roots.emplace_back(v);
        } else if (arg == "--exclude") {
            const char *v = needsValue(i, arg);
            if (!v)
                return 2;
            excludes.emplace_back(v);
        } else if (arg == "--pass") {
            const char *v = needsValue(i, arg);
            if (!v)
                return 2;
            const std::vector<std::string> &ids = analysisRuleIds();
            if (std::find(ids.begin(), ids.end(), v) == ids.end()) {
                std::cerr << "thermctl_analyze: unknown pass '" << v
                          << "' (see --list-rules)\n";
                return 2;
            }
            analyze_opts.passes.emplace_back(v);
        } else if (arg == "--allow-field") {
            const char *v = needsValue(i, arg);
            if (!v)
                return 2;
            if (std::string(v).find("::") == std::string::npos) {
                std::cerr << "thermctl_analyze: --allow-field wants "
                             "'Struct::field', got '"
                          << v << "'\n";
                return 2;
            }
            analyze_opts.allowed_fields.emplace(v);
        } else if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "thermctl_analyze: unknown option '" << arg
                      << "'\n";
            usage(std::cerr);
            return 2;
        } else {
            paths.push_back(std::move(arg));
        }
    }
    if (paths.empty()) {
        usage(std::cerr);
        return 2;
    }

    Allowlist allow;
    if (!allowlist_path.empty()) {
        std::string text;
        if (!readFile(allowlist_path, text)) {
            std::cerr << "thermctl_analyze: cannot read allowlist '"
                      << allowlist_path << "'\n";
            return 2;
        }
        std::string error;
        if (!allow.parse(text, error)) {
            std::cerr << "thermctl_analyze: " << error << "\n";
            return 2;
        }
    }

    LayerSpec layers;
    if (!layers_explicit && fs::exists(".thermctl-layers"))
        layers_path = ".thermctl-layers";
    if (!layers_path.empty()) {
        std::string text;
        if (!readFile(layers_path, text)) {
            std::cerr << "thermctl_analyze: cannot read layers file '"
                      << layers_path << "'\n";
            return 2;
        }
        std::string error;
        if (!layers.parse(text, error)) {
            std::cerr << "thermctl_analyze: " << layers_path << ": "
                      << error << "\n";
            return 2;
        }
    }

    // Expand arguments into the ordered, de-duplicated file list.
    auto excluded = [&](const std::string &generic) {
        return std::any_of(excludes.begin(), excludes.end(),
                           [&](const std::string &e) {
                               return generic.find(e)
                                      != std::string::npos;
                           });
    };
    std::vector<fs::path> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            std::vector<fs::path> batch;
            for (const auto &entry :
                 fs::recursive_directory_iterator(p, ec)) {
                if (entry.is_regular_file() && isSourceFile(entry.path())
                    && !excluded(entry.path().generic_string()))
                    batch.push_back(entry.path());
            }
            std::sort(batch.begin(), batch.end());
            files.insert(files.end(), batch.begin(), batch.end());
        } else if (fs::is_regular_file(p, ec)) {
            if (!excluded(fs::path(p).generic_string()))
                files.emplace_back(p);
        } else {
            std::cerr << "thermctl_analyze: no such file or directory: "
                      << p << "\n";
            return 2;
        }
    }

    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(files.size());
    for (const fs::path &file : files) {
        std::string content;
        if (!readFile(file, content)) {
            std::cerr << "thermctl_analyze: cannot read " << file << "\n";
            return 2;
        }
        sources.emplace_back(file.generic_string(), std::move(content));
    }

    const ProjectModel model = ProjectModel::build(sources, build_opts);
    std::vector<Finding> findings;
    for (Finding &f : analyzeProject(model, layers, must, analyze_opts)) {
        if (!allow.allows(f))
            findings.push_back(std::move(f));
    }

    const std::vector<std::string> stale = allow.unusedEntries();
    for (const std::string &entry : stale)
        std::cerr << "thermctl_analyze: stale allowlist entry: " << entry
                  << "\n";

    if (json)
        std::cout << thermctl::lint::formatJson(findings);
    else
        std::cout << thermctl::lint::formatText(findings);

    if (!findings.empty()) {
        std::cerr << "thermctl_analyze: " << findings.size() << " finding"
                  << (findings.size() == 1 ? "" : "s") << " across "
                  << sources.size() << " files\n";
        return 1;
    }
    if (ci && !stale.empty()) {
        std::cerr << "thermctl_analyze: --ci: " << stale.size()
                  << " stale allowlist entr"
                  << (stale.size() == 1 ? "y" : "ies")
                  << " (remove them or fix the suffix)\n";
        return 1;
    }
    return 0;
}

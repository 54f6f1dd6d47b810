/**
 * @file
 * astra-lint — the repo's token-aware static analyzer for determinism
 * and layering contracts (docs/static-analysis.md).
 *
 *   astra-lint [options] [paths...]      # paths default: src tools tests
 *
 *   --root=DIR         resolve paths and includes under DIR (default .)
 *   --no-allowlist     ignore tools/lint-allow.conf under --root
 *   --list-rules       print every rule id with rationale and exit
 *
 * Every rule runs, and every suppression must absorb a finding: an
 * inline allow(...) comment or allowlist entry that matched nothing is
 * itself a `stale-suppression` finding.
 *
 * Exit status: 0 clean, 1 diagnostics reported, 2 usage/config error.
 * ctest (`lint_tool_strict_clean_tree`) and `tools/ci.sh --lint` run
 * it over src, tools and tests as the static-analysis gate.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/analyzer.hh"

namespace
{

using namespace astra::lint;

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "astra-lint: %s\n", msg.c_str());
    std::fprintf(stderr, "try: astra-lint --list-rules | astra-lint src\n");
    return 2;
}

void
listRules()
{
    for (const RuleInfo &r : allRules()) {
        std::printf("%-16s %s\n", r.id.c_str(), r.summary.c_str());
        std::printf("%-16s fix: %s\n", "", r.fix.c_str());
    }
    std::printf("\nsuppress inline with `// astra-lint: allow(rule-id)`"
                " or `// NOLINT`,\nor per-path via the allowlist file"
                " (tools/lint-allow.conf).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    LintOptions opts;
    std::vector<std::string> paths;
    bool no_allowlist = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list-rules" || arg == "-h" || arg == "--help") {
            listRules();
            return 0;
        } else if (arg.rfind("--root=", 0) == 0) {
            opts.root = arg.substr(std::string("--root=").size());
        } else if (arg == "--no-allowlist") {
            no_allowlist = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usageError("unknown option '" + arg + "'");
        } else {
            paths.push_back(arg);
        }
    }

    if (paths.empty())
        paths = {"src", "tools", "tests"};

    std::filesystem::path allowlist =
        std::filesystem::path(opts.root) / "tools/lint-allow.conf";
    if (!no_allowlist && std::filesystem::exists(allowlist)) {
        std::string err;
        if (!loadAllowlist(allowlist.generic_string(), opts, &err))
            return usageError(err);
    }

    std::vector<std::string> files = collectFiles(opts, paths);
    if (files.empty())
        return usageError("no source files found under the given paths");

    std::vector<Diagnostic> diags = analyzeFiles(opts, files);
    std::fputs(renderText(diags).c_str(), stdout);
    std::printf("astra-lint: %zu file%s checked, %zu finding%s\n",
                files.size(), files.size() == 1 ? "" : "s", diags.size(),
                diags.size() == 1 ? "" : "s");
    return diags.empty() ? 0 : 1;
}

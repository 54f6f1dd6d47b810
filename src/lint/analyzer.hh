/**
 * @file
 * astra-lint driver library (docs/static-analysis.md): file
 * collection, the allowlist, the stale-suppression pass and text
 * rendering.
 * tools/astra_lint.cc is a thin CLI over this so the test suite can
 * drive the analyzer in-process and assert exact diagnostics.
 */

#ifndef ASTRA_LINT_ANALYZER_HH
#define ASTRA_LINT_ANALYZER_HH

#include <string>
#include <vector>

#include "lint/rules.hh"

namespace astra::lint
{

/** One allowlist entry: suppress @p rule where the path matches. */
struct AllowEntry
{
    std::string rule;    //!< rule id, or "*" for every rule
    std::string pattern; //!< ERE matched against the relative path
    std::string file;    //!< allowlist file the entry came from
    int line = 0;        //!< its line there (for stale reports)
};

/** Analyzer configuration. */
struct LintOptions
{
    std::string root = "."; //!< repo root; paths are relative to it
    std::vector<AllowEntry> allow;
};

/**
 * Parse an allowlist file (one `<rule-id> <path-ERE>` pair per line;
 * `#` comments and blank lines ignored) into @p opts. Returns false
 * and fills @p err on malformed lines or unknown rule ids.
 */
bool loadAllowlist(const std::string &path, LintOptions &opts,
                   std::string *err);

/**
 * Expand @p paths (files or directories, relative to opts.root) into a
 * sorted list of *.cc / *.hh / *.cpp / *.hpp files. Directory walks
 * skip `lint/fixtures` subtrees (the checked-in corpus of deliberate
 * violations); explicitly named files are always included.
 */
std::vector<std::string> collectFiles(const LintOptions &opts,
                                      const std::vector<std::string> &paths);

/**
 * Lex and analyze @p files (relative to opts.root): token rules per
 * file (sharing unordered-container declarations between a header and
 * its sibling source), then the project-wide include-graph checks.
 * Returns diagnostics sorted by (file, line, col, rule), after
 * allowlist filtering, followed by one `stale-suppression` finding
 * per inline allow(...) comment or allowlist entry that absorbed
 * nothing.
 */
std::vector<Diagnostic> analyzeFiles(const LintOptions &opts,
                                     const std::vector<std::string> &files);

/** Render @p diags as `file:line:col: [rule] message` lines. */
std::string renderText(const std::vector<Diagnostic> &diags);

} // namespace astra::lint

#endif // ASTRA_LINT_ANALYZER_HH

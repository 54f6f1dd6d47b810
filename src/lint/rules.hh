/**
 * @file
 * The token rules of astra-lint (docs/static-analysis.md).
 *
 * Each rule guards a piece of the determinism or error-handling
 * contract (DESIGN.md, docs/validation.md): two runs with the same
 * seed must retire the same event stream (`--digest`), and failures
 * must flow through ASTRA_CHECK/fatal()/panic() so users see context.
 * Rules operate on the lexer's token stream, so occurrences inside
 * comments and string literals never fire.
 *
 * Rule ids are stable (they appear in allowlists and inline
 * suppressions); new rules append, never rename.
 */

#ifndef ASTRA_LINT_RULES_HH
#define ASTRA_LINT_RULES_HH

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace astra::lint
{

/** One finding. Column/line are 1-based. */
struct Diagnostic
{
    std::string file;
    int line = 0;
    int col = 0;
    std::string rule;
    std::string message;
};

/**
 * One inline suppression that absorbed a finding: the `allow(<rule>)`
 * (or NOLINT) on @p line of @p file matched a diagnostic of @p rule.
 * The analyzer compares these against every suppression written in
 * the tree to report the stale ones.
 */
struct SuppressionUse
{
    std::string file;
    int line = 0;
    std::string rule;
};

/**
 * Append a finding of @p rule at (@p line, @p col) of @p file unless
 * that line carries `NOLINT` or an allow(@p rule) mark. A suppression
 * that absorbs the finding is recorded in @p uses when given, so the
 * stale-suppression pass can tell live suppressions from dead ones.
 * Every rule emits through this.
 */
void emitUnlessSuppressed(const LexedFile &file, int line, int col,
                          const std::string &rule,
                          const std::string &message,
                          std::vector<Diagnostic> &out,
                          std::vector<SuppressionUse> *uses);

/** Static description of a rule, for --list-rules. */
struct RuleInfo
{
    std::string id;
    std::string summary; //!< one-line rationale
    std::string fix;     //!< suggested mechanical fix
};

/** Every token + include-graph rule, in stable id order. */
const std::vector<RuleInfo> &allRules();

/** True if @p id names a known rule. */
bool knownRule(const std::string &id);

/**
 * Run every token rule over @p file and append findings to @p out.
 * Findings on lines whose comments carry `NOLINT` or an allow-list
 * mark naming the rule are dropped here (and recorded in @p uses when
 * given).
 *
 * @p extra_tracked seeds the unordered-container symbol table with
 * names declared elsewhere (the analyzer passes the names found in a
 * .cc file's sibling header, so iteration over unordered members is
 * caught in out-of-line definitions too).
 */
void runTokenRules(const LexedFile &file,
                   const std::set<std::string> &extra_tracked,
                   std::vector<Diagnostic> &out,
                   std::vector<SuppressionUse> *uses = nullptr);

/**
 * The names of unordered-container variables/aliases declared in
 * @p file (the symbol table runTokenRules builds for itself); exposed
 * so the analyzer can share header declarations with sibling sources.
 */
std::set<std::string> unorderedNames(const LexedFile &file);

} // namespace astra::lint

#endif // ASTRA_LINT_RULES_HH

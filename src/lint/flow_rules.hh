/**
 * @file
 * Flow-sensitive rules of astra-lint (docs/static-analysis.md).
 *
 * These rules run on the per-function CFG (cfg.hh) and the forward
 * dataflow engine (dataflow.hh), against function extents recovered by
 * the symbol indexer (symbols.hh):
 *
 *   - use-after-move: a local is read on a path where it was
 *     moved-from and not reassigned/reset since,
 *   - lock-across-wait: a scoped lock (lock_guard/unique_lock/...) is
 *     held at a condition-variable wait, thread-pool submit or
 *     event-loop pump (`cv.wait(lock, ...)` with the held lock as
 *     first argument is the sanctioned form and exempt),
 *   - signal-unsafe: a `signal-handler` function allocates, locks,
 *     does IO or throws, in its own body or anywhere down a
 *     name-based call graph over all analyzed TUs.
 *
 * The first two are per-file (given the cross-TU index); the signal
 * rule needs every file's token stream for the call graph and runs
 * once over the whole program. Suppression semantics match
 * runTokenRules: NOLINT or allow(<rule>) on the diagnostic line
 * absorbs the finding and is recorded in @p uses for the
 * stale-suppression pass.
 */

#ifndef ASTRA_LINT_FLOW_RULES_HH
#define ASTRA_LINT_FLOW_RULES_HH

#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/rules.hh"
#include "lint/symbols.hh"

namespace astra::lint
{

/**
 * Run the per-file flow rules (use-after-move, lock-across-wait) over
 * every function body of @p file, against the cross-TU @p index.
 * Ill-formed CFGs are skipped — a parse miss weakens a rule, it
 * cannot fabricate a finding.
 */
void runFlowRulesFile(const LexedFile &file, const SymbolIndex &index,
                      std::vector<Diagnostic> &out,
                      std::vector<SuppressionUse> *uses = nullptr);

/**
 * Run the whole-program signal-unsafe rule: build the name-based call
 * graph over @p files and search it breadth-first from every
 * `signal-handler` function. Unsafe tokens in the handler's own body
 * are reported where they stand; a callee chain reaching one is
 * reported at the handler's call site that starts it, with the full
 * chain in the message.
 */
void runFlowRulesGlobal(const std::vector<LexedFile> &files,
                        const SymbolIndex &index,
                        std::vector<Diagnostic> &out,
                        std::vector<SuppressionUse> *uses = nullptr);

} // namespace astra::lint

#endif // ASTRA_LINT_FLOW_RULES_HH

/**
 * @file
 * Include-graph layering check of astra-lint (docs/static-analysis.md).
 *
 * The paper's architecture is a strict layer DAG — the workload layer
 * drives the system (core) layer, which schedules collectives, which
 * run on the network/topology layers, which consult the compute and
 * fault models, all on top of common/ (ASTRA-SIM Sec. III–IV; DESIGN.md).
 * An include from a lower layer into an upper one inverts that DAG and
 * is how "the network backend knows about workloads" rot starts.
 *
 * Higher-ranked layers may include lower or equal ones, never the
 * reverse; the rank table is srcDirRank() in include_graph.cc, drawn
 * as a DAG in docs/static-analysis.md.
 *
 * The checker also runs a file-level cycle detection over the resolved
 * project includes: header guards make include cycles compile, but a
 * cycle still means the layering is ill-defined.
 */

#ifndef ASTRA_LINT_INCLUDE_GRAPH_HH
#define ASTRA_LINT_INCLUDE_GRAPH_HH

#include <string>
#include <vector>

#include "lint/rules.hh"

namespace astra::lint
{

/**
 * Layer rank of @p relpath (repo-root-relative, '/'-separated), or -1
 * when the path is outside the layered tree (unknown top-level dirs).
 */
int layerRank(const std::string &relpath);

/** Human-readable layer name for diagnostics ("core", "tools", ...). */
std::string layerName(const std::string &relpath);

/**
 * Run the layering + cycle checks over @p files (lexed with
 * repo-root-relative paths) and append `layer-dag` / `include-cycle`
 * findings to @p out.
 *
 * Quoted include targets are resolved against @p root: first as
 * `<root>/src/<target>` (the repo's canonical spelling — src/ is on
 * the include path), then `<root>/<target>`, then relative to the
 * including file's directory. Unresolvable and angled includes are
 * ignored. Findings honour the same per-line suppressions as token
 * rules.
 */
void checkIncludeGraph(const std::vector<LexedFile> &files,
                       const std::string &root,
                       std::vector<Diagnostic> &out,
                       std::vector<SuppressionUse> *uses = nullptr);

} // namespace astra::lint

#endif // ASTRA_LINT_INCLUDE_GRAPH_HH

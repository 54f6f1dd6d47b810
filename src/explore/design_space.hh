/**
 * @file
 * Design-space exploration driver — the paper's stated purpose
 * ("enabling researchers to ... design efficient SW/HW co-design
 * solutions", Sec. I) as a library API.
 *
 * Given a module budget and a target operation (a collective of a
 * given size, or a full workload), the explorer enumerates candidate
 * platforms — torus factorizations, an alltoall alternative, both
 * collective algorithm flavours, optionally a chunking sweep — runs
 * each through the simulator, and returns the results ranked by
 * communication time (ties broken by interconnect energy).
 */

#ifndef ASTRA_EXPLORE_DESIGN_SPACE_HH
#define ASTRA_EXPLORE_DESIGN_SPACE_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fault/fault.hh"

namespace astra
{

namespace guard
{
class SweepJournal;
}

/** What to optimize over. */
struct ExploreSpec
{
    /** Total NAM/module budget (candidates multiply out to this). */
    int modules = 16;
    /** Candidate local dimension sizes (package integration options). */
    std::vector<int> localDims = {1, 2, 4};
    /** Also consider hierarchical alltoall platforms. */
    bool includeAllToAll = true;
    /** Try both baseline and enhanced algorithm flavours. */
    bool sweepFlavors = true;
    /** Chunk counts to sweep (empty = configuration default only). */
    std::vector<int> setSplits;
    /** Local-link bandwidth multiplier over inter-package links. */
    double localBandwidthRatio = 8.0;

    /** The operation under optimization. */
    CollectiveKind kind = CollectiveKind::AllReduce;
    Bytes bytes = 4 * 1024 * 1024;

    /**
     * Per-candidate run budgets (docs/robustness.md), stamped onto
     * every enumerated candidate's SimConfig. 0 disables each ceiling;
     * a candidate that trips one ends with a contained BudgetExceeded
     * outcome instead of stalling the whole sweep.
     */
    std::uint64_t maxEvents = 0;
    Tick maxSimTime = 0;
    std::uint64_t maxSlabBytes = 0;
    std::uint64_t watchdogWindow = 0;
};

/** One evaluated candidate. */
struct CandidateResult
{
    std::string label;   //!< e.g. "torus-2x4x2/enhanced/16ch"
    SimConfig cfg;       //!< the full platform configuration
    Tick commTime = 0;   //!< simulated collective time
    double energyUj = 0; //!< interconnect energy
    /**
     * Retired-event-stream digest of the candidate's run (determinism
     * auditor, docs/validation.md). Always filled by
     * evaluateCandidates: equal configurations must yield equal
     * digests, whether the sweep ran serially or under --jobs=N.
     */
    std::uint64_t digest = 0;
    /**
     * Full metric snapshot of the candidate's run (Cluster::
     * exportMetrics), filled by evaluateCandidates. Serialized per
     * candidate by --report-json in explore mode. Empty for journal-
     * restored candidates (the journal carries the ranked-table fields,
     * not the full registry — docs/robustness.md).
     */
    MetricRegistry metrics;

    /**
     * How the candidate's run ended (docs/robustness.md taxonomy).
     * Failed means the simulation itself died — an ASTRA_CHECK or
     * config error contained by the sweep instead of aborting it; the
     * first failure record's reason carries the diagnostic.
     */
    RunOutcome outcome = RunOutcome::Completed;

    /** Structured failure records of a non-Completed candidate. */
    std::vector<FailureRecord> failures;

    /** True when the result was restored from a sweep journal. */
    bool restored = false;
};

/**
 * Enumerate the candidate list (cfg and label filled, timings zero)
 * without simulating anything. Exact-duplicate platforms — possible
 * when localDims contains repeated or unit factors that multiply out
 * to the same configuration — are emitted once. fatal()s on an
 * unsatisfiable spec.
 */
std::vector<CandidateResult> enumerateCandidates(const ExploreSpec &spec);

/**
 * Simulate every candidate's collective on up to @p jobs threads
 * (parallelFor), filling commTime, energyUj, digest and metrics in
 * place; cfg and label must already be set. Each candidate runs on its
 * own Cluster and lands in its own slot, so results are bit-for-bit
 * those of a serial run (the determinism contract, DESIGN.md).
 *
 * Crash-contained (docs/robustness.md): while it runs, fatal() throws,
 * and a check or config failure inside one candidate becomes that
 * candidate's Failed outcome + FailureRecord. With @p journal,
 * journaled candidates are restored bit-for-bit (metrics stay empty)
 * and each fresh one is appended + flushed; after an interrupt
 * (guard::interruptRequested) the rest come back Interrupted and
 * unjournaled, so --resume re-runs exactly those.
 */
void evaluateCandidates(std::vector<CandidateResult> &candidates,
                        CollectiveKind kind, Bytes bytes, int jobs,
                        guard::SweepJournal *journal = nullptr);

/**
 * Enumerate, simulate and rank all candidates (best first).
 * fatal()s on an unsatisfiable spec (e.g. a prime module budget with
 * no matching factorization is still fine — 1xNx1 always exists).
 *
 * @param jobs  Worker threads for the sweep: 1 (the default) runs the
 *              classic serial loop, 0 uses every hardware thread, N
 *              uses N. Results are bit-for-bit identical for every
 *              value — candidates are simulated on private event
 *              queues and collected in enumeration order (see
 *              evaluateCandidates).
 * @param journal  Optional sweep journal (docs/robustness.md):
 *              already-journaled candidates are restored instead of
 *              re-simulated, freshly completed ones are appended.
 *
 * Candidates that did not complete (contained failures, budget trips,
 * interrupts) rank after every completed candidate; an all-completed
 * sweep's ranking is bit-for-bit the historical one.
 */
std::vector<CandidateResult>
exploreDesignSpace(const ExploreSpec &spec, int jobs = 1,
                   guard::SweepJournal *journal = nullptr);

/** Convenience: the winning candidate. */
CandidateResult bestDesign(const ExploreSpec &spec, int jobs = 1);

} // namespace astra

#endif // ASTRA_EXPLORE_DESIGN_SPACE_HH

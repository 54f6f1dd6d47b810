#include "explore/design_space.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "core/cluster.hh"
#include "guard/interrupt.hh"
#include "guard/journal.hh"

namespace astra
{

namespace
{

/**
 * Scoped recoverable-check mode: while a sweep runs, fatal()/panic()
 * throw FatalError so a poisoned candidate is contained on its worker
 * instead of killing the process. Installed ONCE around the whole
 * parallelFor (the flag is process-global — per-candidate toggling
 * would race between workers) and restored when the sweep returns.
 */
class ThrowOnFatalScope
{
  public:
    ThrowOnFatalScope() : _prev(loggingThrowsOnFatal())
    {
        setLoggingThrowOnFatal(true);
    }
    ~ThrowOnFatalScope() { setLoggingThrowOnFatal(_prev); }
    ThrowOnFatalScope(const ThrowOnFatalScope &) = delete;
    ThrowOnFatalScope &operator=(const ThrowOnFatalScope &) = delete;

  private:
    bool _prev;
};

FailureRecord
containedFailure(const std::string &reason)
{
    FailureRecord rec;
    rec.reason = reason;
    return rec;
}

std::vector<std::pair<std::string, SimConfig>>
enumeratePlatforms(const ExploreSpec &spec)
{
    std::vector<std::pair<std::string, SimConfig>> out;
    // The label fully encodes a platform (family + dimensions), so a
    // label seen twice — repeated or unit factors in localDims
    // multiplying out to the same shape — is an exact-duplicate
    // SimConfig and is skipped.
    std::set<std::string> seen;
    for (int m : spec.localDims) {
        if (m < 1 || spec.modules % m)
            continue;
        const int packages = spec.modules / m;
        for (int h = 1; h <= packages; ++h) {
            if (packages % h)
                continue;
            const int v = packages / h;
            if (h < v)
                continue; // mirror-symmetric duplicate
            std::string name = strprintf("torus-%dx%dx%d", m, h, v);
            if (!seen.insert(name).second)
                continue;
            SimConfig cfg;
            cfg.torus(m, h, v);
            cfg.local.bandwidth =
                spec.localBandwidthRatio * cfg.package.bandwidth;
            out.emplace_back(std::move(name), cfg);
        }
        if (spec.includeAllToAll && packages >= 2 && packages <= 64) {
            std::string name = strprintf("a2a-%dx%d", m, packages);
            if (!seen.insert(name).second)
                continue;
            SimConfig cfg;
            cfg.allToAll(m, packages, std::min(packages - 1, 7));
            cfg.local.bandwidth =
                spec.localBandwidthRatio * cfg.package.bandwidth;
            out.emplace_back(std::move(name), cfg);
        }
    }
    if (out.empty())
        fatal("design space is empty: no factorization of %d modules "
              "matches the candidate local dimensions",
              spec.modules);
    return out;
}

} // namespace

std::vector<CandidateResult>
enumerateCandidates(const ExploreSpec &spec)
{
    if (spec.modules < 2)
        fatal("need at least 2 modules to explore");
    if (spec.bytes == 0)
        fatal("cannot explore a zero-byte collective");

    std::vector<AlgorithmFlavor> flavors = {AlgorithmFlavor::Baseline};
    if (spec.sweepFlavors)
        flavors.push_back(AlgorithmFlavor::Enhanced);
    std::vector<int> splits = spec.setSplits;
    if (splits.empty())
        splits.push_back(0); // configuration default

    std::vector<CandidateResult> candidates;
    for (const auto &[name, platform] : enumeratePlatforms(spec)) {
        for (AlgorithmFlavor flavor : flavors) {
            for (int split : splits) {
                CandidateResult r;
                r.cfg = platform;
                r.cfg.algorithm = flavor;
                if (split > 0)
                    r.cfg.preferredSetSplits = split;
                r.cfg.maxEvents = spec.maxEvents;
                r.cfg.maxSimTime = spec.maxSimTime;
                r.cfg.maxSlabBytes = spec.maxSlabBytes;
                r.cfg.watchdogWindow = spec.watchdogWindow;
                r.label = name + "/" + toString(flavor);
                if (split > 0)
                    r.label += strprintf("/%dch", split);
                candidates.push_back(std::move(r));
            }
        }
    }
    return candidates;
}

// parallelFor joins before returning; workers write disjoint
// candidates[i] slots by index.
void
evaluateCandidates(std::vector<CandidateResult> &candidates,
                   CollectiveKind kind, Bytes bytes, int jobs,
                   guard::SweepJournal *journal)
{
    ThrowOnFatalScope contain;
    parallelFor(jobs, candidates.size(), [&](std::size_t i) {
        CandidateResult &r = candidates[i];
        const std::uint64_t key =
            journal ? guard::journalKey(r.label, int(kind), bytes,
                                        r.cfg.toString())
                    : 0;
        if (journal) {
            if (const guard::JournalEntry *e = journal->find(key)) {
                // Bit-for-bit restore: integers verbatim, energy via
                // the journal's hexfloat round trip.
                r.outcome = e->outcome;
                r.commTime = e->commTime;
                r.energyUj = e->energyUj;
                r.digest = e->digest;
                r.failures = e->failures;
                r.restored = true;
                return;
            }
        }
        if (guard::interruptRequested()) {
            // Cooperative drain: candidates not yet started come back
            // Interrupted and are NOT journaled — --resume re-runs
            // exactly these.
            r.outcome = RunOutcome::Interrupted;
            r.failures.push_back(containedFailure(
                "interrupted: candidate skipped at sweep boundary"));
            return;
        }
        try {
            // Always collect the determinism digest: candidate results
            // must be identical whether the sweep ran serially or under
            // --jobs=N, and the digest is what makes that auditable.
            SimConfig cfg = r.cfg;
            cfg.digest = true;
            Cluster cluster(cfg);
            r.commTime = cluster.runCollective(kind, bytes);
            r.energyUj = cluster.network().energy().totalUj();
            r.digest = cluster.digest();
            r.metrics = cluster.exportMetrics();
            r.outcome = cluster.outcome();
            r.failures = cluster.failures();
        } catch (const FatalError &e) {
            // A poisoned candidate (failed ASTRA_CHECK, bad derived
            // config): contained as this candidate's outcome; every
            // other candidate still completes.
            r.outcome = RunOutcome::Failed;
            r.commTime = 0;
            r.energyUj = 0;
            r.digest = 0;
            r.metrics = MetricRegistry();
            r.failures = {
                containedFailure(std::string("check: ") + e.what())};
        } catch (const std::exception &e) {
            r.outcome = RunOutcome::Failed;
            r.commTime = 0;
            r.energyUj = 0;
            r.digest = 0;
            r.metrics = MetricRegistry();
            r.failures = {
                containedFailure(std::string("error: ") + e.what())};
        }
        if (journal && r.outcome != RunOutcome::Interrupted) {
            guard::JournalEntry e;
            e.key = key;
            e.outcome = r.outcome;
            e.commTime = r.commTime;
            e.energyUj = r.energyUj;
            e.digest = r.digest;
            e.label = r.label;
            e.failures = r.failures;
            journal->append(e);
        }
    });
}

std::vector<CandidateResult>
exploreDesignSpace(const ExploreSpec &spec, int jobs,
                   guard::SweepJournal *journal)
{
    std::vector<CandidateResult> results = enumerateCandidates(spec);

    // Simulations run on private event queues and land in enumeration
    // order whatever the worker count; a stable sort on top keeps the
    // final ranking independent of jobs even among exact ties.
    evaluateCandidates(results, spec.kind, spec.bytes, jobs, journal);

    std::stable_sort(
        results.begin(), results.end(),
        [](const CandidateResult &a, const CandidateResult &b) {
            // Completed candidates first: a contained failure's zero
            // commTime must not crown it the winner. All-completed
            // sweeps rank exactly as they always have.
            const int fa = a.outcome == RunOutcome::Completed ? 0 : 1;
            const int fb = b.outcome == RunOutcome::Completed ? 0 : 1;
            if (fa != fb)
                return fa < fb;
            if (a.commTime != b.commTime)
                return a.commTime < b.commTime;
            return a.energyUj < b.energyUj;
        });
    return results;
}

CandidateResult
bestDesign(const ExploreSpec &spec, int jobs)
{
    return exploreDesignSpace(spec, jobs).front();
}

} // namespace astra

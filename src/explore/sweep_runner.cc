#include "explore/sweep_runner.hh"

#include "common/logging.hh"
#include "common/thread_pool.hh"
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
 * forEach (the flag is process-global — per-candidate toggling would
 * race between workers) and restored when the sweep returns.
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

} // namespace

SweepRunner::SweepRunner(int jobs)
    : _jobs(jobs <= 0 ? ThreadPool::defaultThreads() : jobs)
{
}

// forEach delegates to parallelFor, which joins before returning;
// workers write disjoint candidates[i] slots by index.
void
SweepRunner::evaluate(std::vector<CandidateResult> &candidates,
                      CollectiveKind kind, Bytes bytes,
                      guard::SweepJournal *journal) const
{
    ThrowOnFatalScope contain;
    forEach(candidates.size(), [&](std::size_t i) {
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

void
SweepRunner::forEach(std::size_t count,
                     const std::function<void(std::size_t)> &fn) const
{
    parallelFor(_jobs, count, fn);
}

} // namespace astra

/**
 * @file
 * Sweep journal — crash-safe record of completed candidates
 * (docs/robustness.md), the stepping stone to the ROADMAP's
 * digest-keyed result cache.
 *
 * `--journal=FILE` appends one entry per evaluated candidate, keyed by
 * an FNV-1a digest of the candidate's full configuration (label, op,
 * bytes, and the rendered SimConfig — budgets included). Each append
 * is flushed immediately, so a SIGINT/SIGTERM or a crash loses at most
 * the candidates still in flight. `--resume` reloads the file and
 * evaluateCandidates skips every journaled candidate, restoring its result
 * bit-for-bit: commTime and digest round-trip as integers and energy
 * as a C99 hexfloat, so the merged output table of an
 * interrupted-then-resumed sweep is byte-identical to an uninterrupted
 * run's.
 *
 * Text format, one record per line (v1):
 *
 *   astra-journal-v1
 *   C <key> <outcome> <commTime> <energy> <digest> <nfail> <label>
 *   F <node> <link> <stream> <tick> <retries> <reason...>
 *
 * `C` lines carry key/digest as hex, energy as %a hexfloat, and are
 * followed by exactly <nfail> `F` failure-record lines. Restored
 * entries carry no metric registry — the journal restores the ranked
 * table, not the full per-candidate JSON report (documented in
 * docs/robustness.md).
 */

#ifndef ASTRA_GUARD_JOURNAL_HH
#define ASTRA_GUARD_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault.hh"

namespace astra
{
namespace guard
{

/** One journaled candidate result (everything the ranked table needs). */
struct JournalEntry
{
    std::uint64_t key = 0;    //!< config digest (journalKey)
    RunOutcome outcome = RunOutcome::Completed;
    Tick commTime = 0;
    double energyUj = 0;
    std::uint64_t digest = 0; //!< retired-event-stream digest
    std::string label;
    std::vector<FailureRecord> failures;
};

/**
 * FNV-1a key of a candidate: label, collective kind, payload size and
 * the rendered configuration (budget keys included, so a re-run with
 * different ceilings never matches a stale entry).
 */
std::uint64_t journalKey(const std::string &label, int kind,
                         std::uint64_t bytes, const std::string &cfg_text);

/**
 * The journal file. Thread-safe: sweep workers append
 * concurrently under one mutex, each append flushed before the call
 * returns. Lookup is read-only after construction.
 */
class SweepJournal
{
  public:
    /**
     * Open @p path. With @p resume the existing file is parsed (a
     * malformed file is a config error — fatal) and then extended;
     * without it any existing content is truncated and a fresh header
     * written. fatal()s when the file cannot be opened.
     */
    SweepJournal(const std::string &path, bool resume);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Entry journaled under @p key, or nullptr. */
    const JournalEntry *find(std::uint64_t key) const;

    /** Append @p entry and flush (thread-safe). */
    void append(const JournalEntry &entry);

    /** Entries loaded at construction (resume mode). */
    std::size_t restoredCount() const { return _entries.size(); }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
    std::FILE *_file = nullptr;
    std::map<std::uint64_t, JournalEntry> _entries;
    mutable std::mutex _mutex;
};

} // namespace guard
} // namespace astra

#endif // ASTRA_GUARD_JOURNAL_HH

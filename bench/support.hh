/**
 * @file
 * Shared helpers for the figure-reproduction harnesses.
 *
 * Every binary in bench/ regenerates one table/figure of the paper's
 * evaluation (Sec. V): it sets up the experiment's platform
 * configuration, sweeps the paper's parameter, and prints the same
 * rows/series the paper plots. Pass --csv=<dir> to also write the
 * series as CSV, --quick for a reduced sweep (CI-friendly; the
 * harnesses that always run at full size say so in --help), and
 * --key=value to override any Table III parameter.
 */

#ifndef ASTRA_BENCH_SUPPORT_HH
#define ASTRA_BENCH_SUPPORT_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "common/csv.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "core/cluster.hh"

namespace astra::bench
{

/** Command-line state common to all harnesses. */
struct BenchArgs
{
    SimConfig overrides;   //!< parsed --key=value overrides
    std::string csvDir;    //!< --csv=<dir>, empty = stdout only
    bool quick = false;    //!< --quick: reduced sweeps
    int jobs = 0;          //!< --jobs=N sweep workers; 0 = all threads
    std::string reportJson; //!< --report-json=<path>, empty = off

    /** Raw overrides to re-apply onto per-experiment configs. */
    std::vector<std::pair<std::string, std::string>> rawOverrides;

    /**
     * Merged metric registries of every simulation the harness ran
     * (filled by timeCollectives/mergeReport when --report-json is
     * given); writeReport serializes it at the end of the run.
     */
    MetricRegistry report;
};

/** What --quick does for a harness (only its --help text differs). */
enum class QuickMode
{
    Reduced,  //!< --quick runs a reduced sweep
    FullSize, //!< --quick is accepted and changes nothing
};

/** Parse argv; exits on --help. */
BenchArgs parseArgs(int argc, char **argv,
                    QuickMode quick = QuickMode::Reduced);

/** Apply the user's --key=value overrides onto @p cfg. */
void applyOverrides(const BenchArgs &args, SimConfig &cfg);

/** Print the figure banner. */
void banner(const std::string &fig, const std::string &what);

/** Geometric size sweep [lo, hi] with the given factor. */
std::vector<Bytes> sizeSweep(Bytes lo, Bytes hi, int factor = 4);

/**
 * Run one collective on a fresh cluster; returns comm time. When
 * @p metrics is non-null the run's full registry is merged into it.
 */
Tick timeCollective(const SimConfig &cfg, CollectiveKind kind,
                    Bytes bytes, MetricRegistry *metrics = nullptr);

/** One independent simulation of a figure sweep. */
struct CollectiveJob
{
    SimConfig cfg;
    CollectiveKind kind;
    Bytes bytes;
};

/**
 * Time every job, fanning the simulations out across args.jobs worker
 * threads (SweepRunner). Results are indexed like @p jobs_list — the
 * numbers and their order are identical to calling timeCollective in
 * a serial loop, only the wall-clock changes.
 */
std::vector<Tick> timeCollectives(BenchArgs &args,
                                  const std::vector<CollectiveJob> &jobs_list);

/** Emit @p table to stdout and, when requested, to <csvDir>/<name>. */
void emitTable(const BenchArgs &args, const std::string &name,
               const Table &table);

/**
 * Merge @p cluster's metric registry into args.report (no-op unless
 * --report-json was given). Call after running a cluster the harness
 * drives directly, outside timeCollectives.
 */
void mergeReport(BenchArgs &args, const Cluster &cluster);

/** Write args.report to --report-json=<path>; no-op when unset. */
void writeReport(const BenchArgs &args);

} // namespace astra::bench

#endif // ASTRA_BENCH_SUPPORT_HH

/**
 * @file
 * astra-sim — the command-line front end of the simulator.
 *
 * Two modes:
 *
 *  Workload mode (the paper's end-to-end flow, Fig. 6):
 *      astra-sim --workload=resnet50.txt --num-passes=2 \
 *                --topology=torus --local-dim=2 --num-packages=4 \
 *                --package-rows=4 [--key=value ...]
 *      astra-sim --model=resnet50|transformer|dlrm  (generate instead
 *                of reading a Fig. 8 workload file)
 *
 *  Collective mode (the Sec. V-A..V-D studies):
 *      astra-sim --collective=allreduce --bytes=4MB [--key=value ...]
 *
 *  Explore mode (the paper's co-design exploration, parallelized):
 *      astra-sim --explore=64 --bytes=4MB --jobs=8 \
 *                [--local-dims=1,2,4] [--set-splits=1,4,16]
 *
 * Output: platform summary, per-layer compute/comm/exposed table (or
 * collective timing), the P0..P4 queue/network breakdown, network
 * energy, and totals. --report-csv=FILE exports the per-layer table.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/check.hh"
#include "common/csv.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "common/units.hh"
#include "core/cluster.hh"
#include "explore/design_space.hh"
#include "guard/interrupt.hh"
#include "guard/journal.hh"
#include "workload/models.hh"
#include "workload/pipeline.hh"
#include "workload/trainer.hh"

using namespace astra;

namespace
{

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [mode] [--key=value ...]\n"
        "\n"
        "workload mode:\n"
        "  --workload=FILE        Fig. 8 workload description (the\n"
        "                         dnn-name key)\n"
        "  --model=NAME           resnet50 | transformer | dlrm | gpt2 | vgg16\n"
        "  --num-passes=N         training iterations (default 1)\n"
        "  --compute-scale=X      compute-power multiplier (Fig. 18)\n"
        "  --pipeline=M           pipeline-parallel with M microbatches\n"
        "  --write-workload=FILE  dump the generated model and exit\n"
        "\n"
        "collective mode:\n"
        "  --collective=KIND      allreduce|allgather|reducescatter|"
        "alltoall\n"
        "  --bytes=SIZE           payload per node (e.g. 4MB)\n"
        "\n"
        "explore mode:\n"
        "  --explore=MODULES      rank candidate platforms for a\n"
        "                         module budget (uses --collective and\n"
        "                         --bytes as the target operation)\n"
        "  --local-dims=LIST      candidate local dims (default 1,2,4)\n"
        "  --set-splits=LIST      chunk counts to sweep (default: the\n"
        "                         configuration default only)\n"
        "  --top=N                print only the N best (default all)\n"
        "  --jobs=N               parallel candidate simulations\n"
        "                         (default: all hardware threads; the\n"
        "                         ranking is identical for every N)\n"
        "\n"
        "common:\n"
        "  --validate[=LEVEL]     run integrity checkers: off, basic\n"
        "                         (drain-time + ledger checks) or full\n"
        "                         (+ per-event ordering audit; the\n"
        "                         default for a bare --validate)\n"
        "  --digest[=verify]      print the retired-event-stream digest\n"
        "                         (determinism auditor); =verify runs\n"
        "                         the simulation twice — explore mode\n"
        "                         compares serial vs --jobs=N — and\n"
        "                         fails on any mismatch\n"
        "  --config=FILE          load key=value parameters\n"
        "  --report-csv=FILE      export the per-layer table as CSV\n"
        "  --report-json=FILE     export the full metric registry\n"
        "                         (sys/net/cluster groups; see\n"
        "                         docs/observability.md)\n"
        "  --trace-file=FILE      Chrome-trace output (Perfetto)\n"
        "  --key=value            override any Table III parameter\n"
        "  (topology: --topology=torus|alltoall --local-dim=M\n"
        "   --num-packages=N --package-rows=K --global-switches=S)\n"
        "\n"
        "fault injection (docs/faults.md):\n"
        "  --fault=RULE           add one deterministic fault rule\n"
        "                         (repeatable): degrade | down |\n"
        "                         straggle | drop\n"
        "  --fault-plan=FILE      load fault rules, one per line\n"
        "  --fault-timeout=T      base retransmission timeout, cycles\n"
        "  --fault-max-retries=N  retries before a send fails for good\n"
        "\n"
        "run supervision (docs/robustness.md):\n"
        "  --max-events=N         end the run (BudgetExceeded) after N\n"
        "                         events; partial results still flush\n"
        "  --max-sim-time=T       highest simulated tick the run may\n"
        "                         reach\n"
        "  --max-slab-bytes=SIZE  event-slab memory ceiling (e.g. 64MB)\n"
        "  --watchdog-window=N    declare livelock when N events drain\n"
        "                         without any stream/chunk progress\n"
        "  --journal=FILE         explore mode: append each completed\n"
        "                         candidate (crash-safe, digest-keyed)\n"
        "  --resume               explore mode: restore journaled\n"
        "                         candidates instead of re-running them\n"
        "  SIGINT/SIGTERM drain cooperatively at the next event\n"
        "  boundary, flushing the journal and partial results.\n"
        "\n"
        "  exit codes: 0 completed, 1 runtime error, 2 configuration\n"
        "  error (such as a bad flag value), 3 degraded/deadlocked\n"
        "  run (see the failure report),\n"
        "  4 run budget exceeded, 5 interrupted, 6 sweep finished with\n"
        "  failed candidates\n",
        prog);
}

/** A --model name and how it builds its workload for a platform. */
struct ModelEntry
{
    const char *name;
    WorkloadSpec (*build)(const SimConfig &cfg);
};

/** Model-parallel shards of the transformer-style models: the
 *  vertical dimension of a 3D torus, else the local one. */
int
modelShards(const SimConfig &cfg)
{
    return cfg.topology == TopologyKind::Torus3D ? cfg.verticalDim
                                                 : cfg.localDim;
}

constexpr ModelEntry kModels[] = {
    {"resnet50", [](const SimConfig &) { return resnet50Workload(); }},
    {"transformer",
     [](const SimConfig &cfg) {
         TransformerConfig tc;
         tc.modelShards = modelShards(cfg);
         return transformerWorkload(tc);
     }},
    {"dlrm", [](const SimConfig &) { return dlrmWorkload(); }},
    {"gpt2",
     [](const SimConfig &cfg) {
         GptConfig gc;
         gc.modelShards = modelShards(cfg);
         return gptWorkload(gc);
     }},
    {"vgg16", [](const SimConfig &) { return vgg16Workload(); }},
};

const ModelEntry &
findModel(const std::string &name)
{
    for (const ModelEntry &m : kModels) {
        if (name == m.name)
            return m;
    }
    fatal("unknown --model '%s' (resnet50/transformer/dlrm/gpt2/vgg16)",
          name.c_str());
}

struct CliOptions
{
    const ModelEntry *model = nullptr;
    std::string writeWorkload;
    std::string configFile;
    std::string reportCsv;
    std::string reportJson;
    std::optional<CollectiveKind> collective;
    Bytes bytes = 4 * MiB;
    double computeScale = 1.0;
    int pipelineMicrobatches = 0; //!< > 0 selects pipeline parallelism

    int exploreModules = 0; //!< > 0 selects explore mode
    std::vector<int> exploreLocalDims;
    std::vector<int> exploreSetSplits;
    int exploreTop = 0; //!< 0 = print every candidate
    int jobs = 0;       //!< sweep workers; 0 = hardware_concurrency

    bool digest = false;       //!< print the determinism digest
    bool digestVerify = false; //!< run twice, fatal on any mismatch

    std::string journalFile; //!< sweep journal path (explore mode)
    bool resume = false;     //!< restore journaled candidates
};

std::string
formatDigest(std::uint64_t d)
{
    return strprintf("0x%016llx", static_cast<unsigned long long>(d));
}

/** fatal() naming flag --@p key if parsing its value found @p problem. */
void
checkFlag(const std::string &key, const std::string &problem)
{
    if (!problem.empty())
        fatal("--%s: %s", key.c_str(), problem.c_str());
}

/** A comma-separated list of positive integers. */
std::vector<int>
parseIntList(const std::string &key, const std::string &value)
{
    std::vector<int> out;
    for (std::size_t pos = 0;;) {
        const std::size_t comma = value.find(',', pos);
        int item = 0;
        checkFlag(key, parseValue(value.substr(pos, comma - pos), &item,
                                  atLeast(1)));
        out.push_back(item);
        if (comma == std::string::npos)
            return out;
        pos = comma + 1;
    }
}

void
printBreakdown(const StatGroup &stats)
{
    Table t;
    t.header({"stage", "queue_mean", "queue_max", "network_mean",
              "network_max", "chunk_phases"});
    for (int p = 0; p <= 4; ++p) {
        const Accumulator &q =
            stats.accumulator(strprintf("queue.P%d", p));
        const Accumulator &n =
            stats.accumulator(strprintf("network.P%d", p));
        if (q.count() == 0 && n.count() == 0)
            continue;
        t.row()
            .cell(strprintf("P%d", p))
            .cell(q.mean(), "%.0f")
            .cell(q.maximum(), "%.0f")
            .cell(n.mean(), "%.0f")
            .cell(n.maximum(), "%.0f")
            .cell(std::uint64_t(std::max(q.count(), n.count())));
    }
    std::printf("pipeline-stage delays [cycles]:\n");
    t.print();
}

void
printEnergy(const NetworkApi::Energy &e)
{
    std::printf("network energy: %.2f uJ (local links %.2f, "
                "package links %.2f, routers %.2f)\n",
                e.totalUj(), e.localLinkPj * 1e-6,
                e.packageLinkPj * 1e-6, e.routerPj * 1e-6);
}

/**
 * Top-level JSON members for the metric report: the outcome and
 * failure list when a fault plan is active or the run ended in any
 * non-Completed way (budget trip, watchdog, interrupt) — nothing (and
 * a byte-identical document) otherwise.
 */
std::string
reportExtra(const Cluster &cluster)
{
    if (!cluster.faults() &&
        cluster.outcome() == RunOutcome::Completed)
        return std::string();
    return failureReportJsonMembers(cluster.outcome(),
                                    cluster.failures());
}

/**
 * Print the failure report and map the run outcome to the process
 * exit code: 0 Completed, 3 Degraded/Deadlocked, 4 BudgetExceeded,
 * 5 Interrupted (runtime fatals keep exiting 1, configuration
 * errors 2, sweeps with failed candidates 6).
 */
int
reportOutcome(const Cluster &cluster)
{
    if (cluster.outcome() == RunOutcome::Completed)
        return 0;
    std::printf("\n%s",
                formatFailureReport(cluster.outcome(),
                                    cluster.failures())
                    .c_str());
    switch (cluster.outcome()) {
      case RunOutcome::BudgetExceeded:
        return 4;
      case RunOutcome::Interrupted:
        return 5;
      default:
        return 3;
    }
}

/** Compact JSON array of a candidate's failure records. */
std::string
candidateFailuresJson(const std::vector<FailureRecord> &failures)
{
    std::string out = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const FailureRecord &f = failures[i];
        if (i)
            out += ", ";
        out += strprintf("{\"node\": %d, \"link\": %d, "
                         "\"stream\": %llu, \"tick\": %llu, "
                         "\"retries\": %d, \"reason\": \"%s\"}",
                         f.node, f.link,
                         static_cast<unsigned long long>(f.stream),
                         static_cast<unsigned long long>(f.tick),
                         f.retries, jsonEscape(f.reason).c_str());
    }
    out += "]";
    return out;
}

/**
 * Write the cluster's metric registry, plus whatever @p add_run adds
 * (a workload run's own group), if --report-json was given.
 */
void
writeReportJson(const CliOptions &opts, const Cluster &cluster,
                const std::function<void(MetricRegistry &)> &add_run = {})
{
    if (opts.reportJson.empty())
        return;
    MetricRegistry reg = cluster.exportMetrics();
    if (add_run)
        add_run(reg);
    reg.writeFile(opts.reportJson, reportExtra(cluster));
    std::printf("wrote metric report: %s\n", opts.reportJson.c_str());
}

/**
 * Print the event digest (--digest) and, under --digest=verify, run
 * the determinism audit: @p rerun on an identical platform must
 * replay the exact same event stream and @p result.
 */
void
reportDigest(const CliOptions &opts, const SimConfig &cfg,
             const Cluster &cluster, Tick result,
             const std::function<Tick(Cluster &)> &rerun)
{
    if (opts.digest)
        std::printf("event digest: %s\n",
                    formatDigest(cluster.digest()).c_str());
    if (!opts.digestVerify)
        return;
    Cluster second(cfg);
    const Tick t2 = rerun(second);
    ASTRA_CHECK(t2 == result && second.digest() == cluster.digest(),
                "determinism audit failed: run 1 (%llu cycles, "
                "digest %s) != run 2 (%llu cycles, digest %s)",
                static_cast<unsigned long long>(result),
                formatDigest(cluster.digest()).c_str(),
                static_cast<unsigned long long>(t2),
                formatDigest(second.digest()).c_str());
    std::printf("determinism audit: two runs identical (%s)\n",
                formatDigest(cluster.digest()).c_str());
}

/**
 * Print a workload run's result table, export it as --report-csv and,
 * under --report-json, the cluster's metrics plus the run's own
 * (Run::exportStats) as group @p group.
 */
template <typename Run>
void
writeRunReport(const CliOptions &opts, const Cluster &cluster,
               const Table &t, const Run &run, const char *group)
{
    t.print();
    if (!opts.reportCsv.empty())
        t.writeCsv(opts.reportCsv);
    writeReportJson(opts, cluster, [&](MetricRegistry &reg) {
        run.exportStats(reg.group(group));
    });
    std::printf("\n");
}

int
runCollectiveMode(const CliOptions &opts, SimConfig cfg)
{
    const CollectiveKind kind = *opts.collective;
    cfg.digest = cfg.digest || opts.digest;
    Cluster cluster(cfg);
    std::printf("platform:\n%s\n", cfg.toString().c_str());
    const Tick t = cluster.runCollective(kind, opts.bytes);
    std::printf("%s %s: %s\n\n", formatBytes(opts.bytes).c_str(),
                toString(kind), formatTicks(t).c_str());
    reportDigest(opts, cfg, cluster, t, [&](Cluster &c) {
        return c.runCollective(kind, opts.bytes);
    });
    StatGroup stats = cluster.aggregateStats();
    printBreakdown(stats);
    writeReportJson(opts, cluster);
    printEnergy(cluster.network().energy());
    if (t > 0) {
        const double gbps = static_cast<double>(opts.bytes) /
                            static_cast<double>(t);
        std::printf("effective per-node algorithm bandwidth: "
                    "%.2f GB/s\n",
                    gbps);
    }
    return reportOutcome(cluster);
}

int
runExploreMode(const CliOptions &opts, const SimConfig &cfg)
{
    ExploreSpec spec;
    spec.modules = opts.exploreModules;
    if (!opts.exploreLocalDims.empty())
        spec.localDims = opts.exploreLocalDims;
    spec.setSplits = opts.exploreSetSplits;
    spec.bytes = opts.bytes;
    if (opts.collective)
        spec.kind = *opts.collective;
    // Per-candidate run budgets come from the shared config keys
    // (--max-events etc.) and are stamped onto every candidate.
    spec.maxEvents = cfg.maxEvents;
    spec.maxSimTime = cfg.maxSimTime;
    spec.maxSlabBytes = cfg.maxSlabBytes;
    spec.watchdogWindow = cfg.watchdogWindow;

    std::unique_ptr<guard::SweepJournal> journal;
    if (!opts.journalFile.empty())
        journal = std::make_unique<guard::SweepJournal>(opts.journalFile,
                                                        opts.resume);

    // For the report lines only: parallelFor resolves --jobs=0 itself.
    const int jobs = opts.jobs > 0 ? opts.jobs : hardwareThreads();
    const auto candidates = enumerateCandidates(spec);
    std::printf("explore: %d modules, %zu candidates, %s of %s, "
                "%d worker thread(s)\n\n",
                spec.modules, candidates.size(), toString(spec.kind),
                formatBytes(spec.bytes).c_str(), jobs);
    if (journal && opts.resume && journal->restoredCount() > 0)
        std::printf("resume: %zu candidate(s) restored from %s\n\n",
                    journal->restoredCount(),
                    journal->path().c_str());

    auto results = exploreDesignSpace(spec, opts.jobs, journal.get());

    if (opts.digestVerify) {
        // Determinism audit: a serial sweep must reproduce the
        // parallel sweep's ranking, timings and event digests exactly.
        auto serial = exploreDesignSpace(spec, 1);
        ASTRA_CHECK(serial.size() == results.size(),
                    "determinism audit failed: serial sweep produced "
                    "%zu candidates, --jobs=%d produced %zu",
                    serial.size(), jobs, results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASTRA_CHECK(serial[i].label == results[i].label &&
                            serial[i].commTime == results[i].commTime &&
                            serial[i].digest == results[i].digest,
                        "determinism audit failed at rank %zu: serial "
                        "(%s, %llu cycles, digest %s) != --jobs=%d "
                        "(%s, %llu cycles, digest %s)",
                        i + 1, serial[i].label.c_str(),
                        static_cast<unsigned long long>(
                            serial[i].commTime),
                        formatDigest(serial[i].digest).c_str(),
                        jobs, results[i].label.c_str(),
                        static_cast<unsigned long long>(
                            results[i].commTime),
                        formatDigest(results[i].digest).c_str());
        }
        std::printf("determinism audit: serial and --jobs=%d sweeps "
                    "identical (%zu candidates)\n\n",
                    jobs, results.size());
    }

    // The outcome column appears only when some candidate did not
    // complete, so a clean sweep's table (and CSV) stays byte-identical
    // to pre-guard output — which is also what lets an interrupted+
    // resumed sweep's merged table compare bit-for-bit against an
    // uninterrupted run's.
    bool any_bad = false;
    for (const CandidateResult &r : results)
        any_bad = any_bad || r.outcome != RunOutcome::Completed;

    Table t;
    std::vector<std::string> header = {"rank", "candidate",
                                       "comm_cycles", "energy_uJ",
                                       "vs_best"};
    if (opts.digest)
        header.push_back("digest");
    if (any_bad)
        header.push_back("outcome");
    t.header(header);
    const std::size_t limit =
        opts.exploreTop > 0
            ? std::min<std::size_t>(std::size_t(opts.exploreTop),
                                    results.size())
            : results.size();
    for (std::size_t i = 0; i < limit; ++i) {
        const CandidateResult &r = results[i];
        Table &row = t.row();
        row.cell(std::uint64_t(i + 1))
            .cell(r.label)
            .cell(std::uint64_t(r.commTime))
            .cell(r.energyUj, "%.2f")
            .cell(double(r.commTime) / double(results[0].commTime),
                  "%.3f");
        if (opts.digest)
            row.cell(formatDigest(r.digest));
        if (any_bad)
            row.cell(toString(r.outcome));
    }
    t.print();
    if (!opts.reportCsv.empty())
        t.writeCsv(opts.reportCsv);
    if (!opts.reportJson.empty()) {
        // One document, every candidate with its full metric registry.
        std::FILE *f = std::fopen(opts.reportJson.c_str(), "w");
        if (!f)
            fatal("cannot open report file '%s' for writing",
                  opts.reportJson.c_str());
        std::fprintf(f,
                     "{\n  \"schema\": \"astra-explore-v1\",\n"
                     "  \"operation\": \"%s\",\n  \"bytes\": %llu,\n"
                     "  \"candidates\": [",
                     toString(spec.kind),
                     static_cast<unsigned long long>(spec.bytes));
        for (std::size_t i = 0; i < results.size(); ++i) {
            const CandidateResult &r = results[i];
            std::string metrics = r.metrics.toJson();
            while (!metrics.empty() && metrics.back() == '\n')
                metrics.pop_back();
            std::fprintf(f,
                         "%s\n    {\"rank\": %zu, \"label\": \"%s\", "
                         "\"comm_cycles\": %llu, \"energy_uj\": %s, "
                         "\"digest\": \"%s\", \"outcome\": \"%s\", "
                         "\"failures\": %s, \"metrics\": %s}",
                         i == 0 ? "" : ",", i + 1,
                         jsonEscape(r.label).c_str(),
                         static_cast<unsigned long long>(r.commTime),
                         jsonNumber(r.energyUj).c_str(),
                         formatDigest(r.digest).c_str(),
                         toString(r.outcome),
                         candidateFailuresJson(r.failures).c_str(),
                         metrics.c_str());
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        std::printf("wrote metric report: %s\n",
                    opts.reportJson.c_str());
    }
    std::printf("\nbest: %s (%s)\n", results[0].label.c_str(),
                formatTicks(results[0].commTime).c_str());
    // Sweep-level exit taxonomy: an interrupted sweep is 5 (resume it
    // with --journal/--resume), one that completed but contained
    // failed/budget-tripped candidates is 6, a clean sweep 0.
    bool any_interrupted = false;
    for (const CandidateResult &r : results)
        any_interrupted =
            any_interrupted || r.outcome == RunOutcome::Interrupted;
    if (any_interrupted)
        return 5;
    if (any_bad) {
        for (const CandidateResult &r : results) {
            if (r.outcome == RunOutcome::Completed)
                continue;
            std::printf("%s: %s%s\n", r.label.c_str(),
                        toString(r.outcome),
                        r.failures.empty()
                            ? ""
                            : strprintf(" (%s)",
                                        r.failures.front().reason
                                            .c_str())
                                  .c_str());
        }
        return 6;
    }
    return 0;
}

int
runWorkloadMode(const CliOptions &opts, SimConfig cfg)
{
    WorkloadSpec spec = cfg.dnnName.empty()
                            ? opts.model->build(cfg)
                            : WorkloadSpec::parseFile(cfg.dnnName);

    if (!opts.writeWorkload.empty()) {
        spec.writeFile(opts.writeWorkload);
        std::printf("wrote %s (%zu layers)\n",
                    opts.writeWorkload.c_str(), spec.layers.size());
        return 0;
    }

    std::printf("platform:\n%s\n", cfg.toString().c_str());
    std::printf("workload: %s, %s parallelism, %zu layers, "
                "%d pass(es), compute scale %.2gx\n\n",
                spec.name.c_str(), toString(spec.parallelism),
                spec.layers.size(), cfg.numPasses, opts.computeScale);

    cfg.digest = cfg.digest || opts.digest;
    Cluster cluster(cfg);

    if (opts.pipelineMicrobatches > 0) {
        const PipelineOptions popts{
            .numPasses = cfg.numPasses,
            .microbatches = opts.pipelineMicrobatches,
            .computeScale = opts.computeScale};
        PipelineRun run(cluster, spec, popts);
        const Tick makespan = run.run();
        Table t;
        t.header({"stage", "layers", "compute", "bubble", "wg_comm"});
        for (int s = 0; s < run.numStages(); ++s) {
            const StageStats &st = run.stage(s);
            t.row()
                .cell(std::uint64_t(s))
                .cell(std::uint64_t(st.layers))
                .cell(std::uint64_t(st.compute))
                .cell(std::uint64_t(st.bubble))
                .cell(std::uint64_t(st.commWg));
        }
        writeRunReport(opts, cluster, t, run, "pipeline");
        printEnergy(cluster.network().energy());
        reportDigest(opts, cfg, cluster, makespan, [&](Cluster &c) {
            return PipelineRun(c, spec, popts).run();
        });
        std::printf("\nmakespan: %s, pipeline bubble: %.1f%%\n",
                    formatTicks(makespan).c_str(),
                    100 * run.bubbleRatio());
        return reportOutcome(cluster);
    }

    const TrainerOptions topts{.numPasses = cfg.numPasses,
                               .computeScale = opts.computeScale};
    WorkloadRun run(cluster, spec, topts);
    const Tick makespan = run.run();

    Table t;
    t.header({"layer", "name", "compute", "comm_fwd", "comm_ig",
              "comm_wg", "exposed"});
    const auto &stats = run.layerStats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
        t.row()
            .cell(std::uint64_t(i))
            .cell(spec.layers[i].name)
            .cell(std::uint64_t(stats[i].compute))
            .cell(std::uint64_t(stats[i].commFwd))
            .cell(std::uint64_t(stats[i].commIg))
            .cell(std::uint64_t(stats[i].commWg))
            .cell(std::uint64_t(stats[i].exposed));
    }
    writeRunReport(opts, cluster, t, run, "workload");
    printBreakdown(cluster.aggregateStats());
    printEnergy(cluster.network().energy());
    reportDigest(opts, cfg, cluster, makespan, [&](Cluster &c) {
        return WorkloadRun(c, spec, topts).run();
    });
    std::printf("\nmakespan: %s\n", formatTicks(makespan).c_str());
    std::printf("compute: %.1f%%  exposed communication: %.1f%%\n",
                100 * run.computeRatio(), 100 * run.exposedRatio());
    return reportOutcome(cluster);
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    SimConfig cfg;
    cfg.torus(2, 2, 2); // a small default platform

    // The whole configuration phase, flags included, reports through
    // exit code 2 — distinct from runtime errors (1) and degraded runs
    // (3) so CI can tell a bad config from a bad simulation. Config
    // file errors are collected by the parser (all problems at once,
    // file:line prefixed) and land here as one FatalError.
    setLoggingThrowOnFatal(true);
    try {
        // CLI-level options first; everything else goes to SimConfig,
        // after the config file so that flags override it.
        std::vector<std::pair<std::string, std::string>> cfg_args;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(argv[0]);
                return 0;
            }
            auto eq = arg.find('=');
            // --validate, --digest and --resume are meaningful bare: a
            // bare --validate selects the full level, a bare --digest
            // just prints the digest, --resume takes no value at all.
            if (arg == "--validate" || arg == "--digest" ||
                arg == "--resume")
                eq = arg.size();
            if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
                std::fprintf(stderr, "unexpected argument '%s'\n",
                             arg.c_str());
                usage(argv[0]);
                return 1;
            }
            const std::string key = arg.substr(2, eq - 2);
            const std::string value =
                eq + 1 < arg.size() ? arg.substr(eq + 1) : std::string();
            if (key == "validate") {
                setValidationLevel(parseValidateLevel(value));
            } else if (key == "digest") {
                if (value == "verify") {
                    opts.digest = true;
                    opts.digestVerify = true;
                } else if (value.empty()) {
                    opts.digest = true;
                } else {
                    fatal("--digest takes no value or 'verify', got '%s'",
                          value.c_str());
                }
            } else if (key == "model") {
                opts.model = &findModel(value);
            } else if (key == "write-workload") {
                opts.writeWorkload = value;
            } else if (key == "config") {
                opts.configFile = value;
            } else if (key == "report-csv") {
                opts.reportCsv = value;
            } else if (key == "report-json") {
                opts.reportJson = value;
            } else if (key == "collective") {
                opts.collective = parseCollectiveKind(value.c_str());
                if (*opts.collective == CollectiveKind::None)
                    fatal("--collective: '%s' names no collective",
                          value.c_str());
            } else if (key == "bytes") {
                checkFlag(key, parseSize(value, &opts.bytes));
            } else if (key == "compute-scale") {
                checkFlag(key,
                          parseValue(value, &opts.computeScale, kPositive));
            } else if (key == "pipeline") {
                checkFlag(key, parseValue(value, &opts.pipelineMicrobatches,
                                          atLeast(0)));
            } else if (key == "explore") {
                checkFlag(key,
                          parseValue(value, &opts.exploreModules, atLeast(1)));
            } else if (key == "local-dims") {
                opts.exploreLocalDims = parseIntList(key, value);
            } else if (key == "set-splits") {
                opts.exploreSetSplits = parseIntList(key, value);
            } else if (key == "top") {
                checkFlag(key, parseValue(value, &opts.exploreTop, atLeast(0)));
            } else if (key == "jobs") {
                checkFlag(key, parseValue(value, &opts.jobs, atLeast(0)));
            } else if (key == "journal") {
                opts.journalFile = value;
            } else if (key == "resume") {
                opts.resume = true;
            } else {
                cfg_args.emplace_back(key, value);
            }
        }

        if (!opts.configFile.empty())
            cfg.loadFile(opts.configFile);
        for (const auto &[k, v] : cfg_args)
            cfg.set(k, v);
        cfg.validate();
        // Vet the fault rules now: a malformed rule is a config error,
        // not a runtime one.
        FaultPlan::fromConfig(cfg);
        if (opts.resume && opts.journalFile.empty())
            fatal("--resume requires --journal=FILE");
        if (!opts.journalFile.empty() && opts.exploreModules <= 0)
            fatal("--journal is an explore-mode option "
                  "(use --explore=MODULES)");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    setLoggingThrowOnFatal(false);

    // Cooperative SIGINT/SIGTERM: the event loop drains at the next
    // slice boundary, flushes the journal and partial results, and the
    // process exits 5 (docs/robustness.md).
    guard::installInterruptHandlers();

    if (opts.exploreModules > 0)
        return runExploreMode(opts, cfg);
    if (opts.collective)
        return runCollectiveMode(opts, cfg);
    if (cfg.dnnName.empty() && !opts.model) {
        std::fprintf(stderr, "need --workload, --model, --collective "
                             "or --explore\n");
        usage(argv[0]);
        return 1;
    }
    return runWorkloadMode(opts, cfg);
}

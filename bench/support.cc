#include "bench/support.hh"

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "explore/sweep_runner.hh"

namespace astra::bench
{

BenchArgs
parseArgs(int argc, char **argv, QuickMode quick)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--quick] [--jobs=N] [--csv=DIR] "
                "[--report-json=FILE] [--key=value ...]\n"
                "%s"
                "  --jobs=N     parallel simulations (default: all\n"
                "               hardware threads; results identical)\n"
                "  --csv=DIR    also write series as CSV into DIR\n"
                "  --report-json=FILE  write the merged metric registry\n"
                "               of every simulated run as JSON\n"
                "  --key=value  override any simulator parameter\n",
                argv[0],
                quick == QuickMode::Reduced
                    ? "  --quick      reduced sweep (CI)\n"
                    : "  --quick      no effect: this harness always runs "
                      "its full\n"
                      "               sweep (under 2 s)\n");
            std::exit(0);
        }
        if (arg == "--quick") {
            args.quick = true;
            continue;
        }
        if (arg.rfind("--jobs=", 0) == 0) {
            const std::string err =
                parseValue(arg.substr(7), &args.jobs, atLeast(0));
            if (!err.empty())
                fatal("--jobs: %s", err.c_str());
            continue;
        }
        if (arg.rfind("--csv=", 0) == 0) {
            args.csvDir = arg.substr(6);
            continue;
        }
        if (arg.rfind("--report-json=", 0) == 0) {
            args.reportJson = arg.substr(14);
            continue;
        }
        if (arg.rfind("--", 0) == 0) {
            auto eq = arg.find('=');
            if (eq == std::string::npos)
                fatal("expected --key=value, got '%s'", arg.c_str());
            args.rawOverrides.emplace_back(arg.substr(2, eq - 2),
                                           arg.substr(eq + 1));
            continue;
        }
        fatal("unexpected argument '%s'", arg.c_str());
    }
    return args;
}

void
applyOverrides(const BenchArgs &args, SimConfig &cfg)
{
    for (const auto &[k, v] : args.rawOverrides)
        cfg.set(k, v);
}

void
banner(const std::string &fig, const std::string &what)
{
    std::printf("=== %s — %s ===\n", fig.c_str(), what.c_str());
}

std::vector<Bytes>
sizeSweep(Bytes lo, Bytes hi, int factor)
{
    std::vector<Bytes> sizes;
    for (Bytes s = lo; s <= hi; s *= Bytes(factor))
        sizes.push_back(s);
    return sizes;
}

Tick
timeCollective(const SimConfig &cfg, CollectiveKind kind, Bytes bytes,
               MetricRegistry *metrics)
{
    Cluster cluster(cfg);
    const Tick t = cluster.runCollective(kind, bytes);
    if (metrics)
        metrics->merge(cluster.exportMetrics());
    return t;
}

std::vector<Tick>
timeCollectives(BenchArgs &args,
                const std::vector<CollectiveJob> &jobs_list)
{
    std::vector<Tick> out(jobs_list.size(), 0);
    const bool want_metrics = !args.reportJson.empty();
    // Workers fill private slots; the merge into the shared report
    // happens serially afterwards (deterministic, no locking).
    std::vector<MetricRegistry> regs(want_metrics ? jobs_list.size() : 0);
    SweepRunner runner(args.jobs);
    runner.forEach(jobs_list.size(), [&](std::size_t i) {
        const CollectiveJob &job = jobs_list[i];
        out[i] = timeCollective(job.cfg, job.kind, job.bytes,
                                want_metrics ? &regs[i] : nullptr);
    });
    for (const MetricRegistry &r : regs)
        args.report.merge(r);
    return out;
}

void
emitTable(const BenchArgs &args, const std::string &name,
          const Table &table)
{
    table.print();
    std::printf("\n");
    if (!args.csvDir.empty())
        table.writeCsv(args.csvDir + "/" + name);
}

void
mergeReport(BenchArgs &args, const Cluster &cluster)
{
    if (args.reportJson.empty())
        return;
    args.report.merge(cluster.exportMetrics());
}

void
writeReport(const BenchArgs &args)
{
    if (args.reportJson.empty())
        return;
    args.report.writeFile(args.reportJson);
    std::printf("wrote metric report: %s\n", args.reportJson.c_str());
}

} // namespace astra::bench

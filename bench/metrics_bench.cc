/**
 * @file
 * metrics_bench — measures the cost of the observability layer.
 *
 * Runs the same collective twice per backend: once with network
 * instrumentation enabled (net-metrics=1, the default) and once with
 * it compiled out of the hot path (net-metrics=0). The simulated
 * results are identical by construction (the instrumentation is
 * observer-only); only the host wall-clock differs. The ratio is the
 * price of per-link usage tracking, histograms, and counter lanes —
 * the PR budget is <= 10% on both backends.
 *
 * The determinism digest (digest=1, which every explore sweep turns
 * on) is measured the same way, on vs off per backend. Its row is
 * reported only; the 10% budget covers net-metrics alone.
 *
 * Emits the numbers as JSON (--out=FILE, default BENCH_metrics.json)
 * so the overhead trajectory is tracked across PRs. --quick shrinks
 * the message sizes for CI; checked-in numbers come from the full run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "bench/support.hh"
#include "common/logging.hh"

using namespace astra;
using namespace astra::bench;

namespace
{

double
wallMs(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Measurement
{
    double onMs = 0;     //!< best-of-reps, observer on
    double offMs = 0;    //!< best-of-reps, observer off
    Tick commOn = 0;     //!< simulated result with the observer on
    Tick commOff = 0;    //!< ... and off (must be identical)

    double overhead() const { return safeDiv(onMs - offMs, offMs); }
};

/** Time the collective with the observer @p flag on and off. */
Measurement
measure(SimConfig cfg, bool SimConfig::*flag, const char *flag_name,
        CollectiveKind kind, Bytes bytes, int reps)
{
    Measurement m;
    m.onMs = m.offMs = 1e300;
    for (int r = 0; r < reps; ++r) {
        // Alternate the order so cache warm-up noise cancels out.
        for (bool on : {r % 2 == 0, r % 2 != 0}) {
            cfg.*flag = on;
            Tick comm = 0;
            const double ms = wallMs([&] {
                Cluster cluster(cfg);
                comm = cluster.runCollective(kind, bytes);
            });
            if (on) {
                m.onMs = std::min(m.onMs, ms);
                m.commOn = comm;
            } else {
                m.offMs = std::min(m.offMs, ms);
                m.commOff = comm;
            }
        }
    }
    if (m.commOn != m.commOff)
        fatal("%s changed the simulation: %llu != %llu ticks "
              "(observer-only contract violated)",
              flag_name, static_cast<unsigned long long>(m.commOn),
              static_cast<unsigned long long>(m.commOff));
    return m;
}

void
report(const char *name, const char *what, const Measurement &m)
{
    std::printf("  %-12s %-11s on %8.1f ms, off %8.1f ms, "
                "overhead %+.1f%%\n",
                name, what, m.onMs, m.offMs, 100 * m.overhead());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv);
    banner("metrics_bench", "observer overhead (net-metrics and "
                            "digest, on vs off)");

    std::string out_path = "BENCH_metrics.json";
    std::erase_if(args.rawOverrides, [&](const auto &kv) {
        if (kv.first != "out")
            return false;
        out_path = kv.second;
        return true;
    });

    const int reps = args.quick ? 2 : 5;
    const Bytes ana_bytes = args.quick ? 2 * MiB : 16 * MiB;
    const Bytes gar_bytes = args.quick ? 512 * KiB : 2 * MiB;

    SimConfig ana;
    ana.torus(4, 4, 4);
    ana.local.bandwidth = 8 * ana.package.bandwidth;
    ana.algorithm = AlgorithmFlavor::Enhanced;
    applyOverrides(args, ana);

    SimConfig gar = ana;
    gar.backend = NetworkBackend::GarnetLite;

    const auto kind = CollectiveKind::AllReduce;
    const Measurement a = measure(ana, &SimConfig::netMetrics,
                                  "net-metrics", kind, ana_bytes, reps);
    report("analytical", "net-metrics", a);
    const Measurement ad =
        measure(ana, &SimConfig::digest, "digest", kind, ana_bytes, reps);
    report("analytical", "digest", ad);
    const Measurement g = measure(gar, &SimConfig::netMetrics,
                                  "net-metrics", kind, gar_bytes, reps);
    report("garnet-lite", "net-metrics", g);
    const Measurement gd =
        measure(gar, &SimConfig::digest, "digest", kind, gar_bytes, reps);
    report("garnet-lite", "digest", gd);

    const double worst = std::max(a.overhead(), g.overhead());
    std::printf("  worst-case overhead: %+.1f%% (budget 10%%)\n", worst * 100);
    if (worst > 0.10)
        std::printf("  WARNING: instrumentation overhead exceeds the "
                    "10%% budget\n");

    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", out_path.c_str());
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"metrics\",\n"
        "  \"quick\": %s,\n"
        "  \"reps\": %d,\n"
        "  \"analytical\": {\n"
        "    \"config\": \"torus-4x4x4 allreduce\",\n"
        "    \"bytes\": %llu,\n"
        "    \"metrics_on_ms\": %.2f,\n"
        "    \"metrics_off_ms\": %.2f,\n"
        "    \"overhead\": %.4f,\n"
        "    \"comm_cycles\": %llu,\n"
        "    \"digest_on_ms\": %.2f,\n"
        "    \"digest_off_ms\": %.2f,\n"
        "    \"digest_overhead\": %.4f\n"
        "  },\n"
        "  \"garnet_lite\": {\n"
        "    \"config\": \"garnet-lite torus-4x4x4 allreduce\",\n"
        "    \"bytes\": %llu,\n"
        "    \"metrics_on_ms\": %.2f,\n"
        "    \"metrics_off_ms\": %.2f,\n"
        "    \"overhead\": %.4f,\n"
        "    \"comm_cycles\": %llu,\n"
        "    \"digest_on_ms\": %.2f,\n"
        "    \"digest_off_ms\": %.2f,\n"
        "    \"digest_overhead\": %.4f\n"
        "  },\n"
        "  \"worst_overhead\": %.4f,\n"
        "  \"budget\": 0.10,\n"
        "  \"within_budget\": %s\n"
        "}\n",
        args.quick ? "true" : "false", reps,
        static_cast<unsigned long long>(ana_bytes), a.onMs, a.offMs,
        a.overhead(), static_cast<unsigned long long>(a.commOn), ad.onMs,
        ad.offMs, ad.overhead(),
        static_cast<unsigned long long>(gar_bytes), g.onMs, g.offMs,
        g.overhead(), static_cast<unsigned long long>(g.commOn), gd.onMs,
        gd.offMs, gd.overhead(), worst, worst <= 0.10 ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

/**
 * @file
 * sweep_bench — tracks the two perf numbers the sweep engine is about:
 *
 *  1. Design-space sweep throughput: the fixed 64-module exploration
 *     (the paper's co-design study, Sec. V) run serially and with
 *     --jobs workers, verifying that the ranked results are
 *     byte-identical and reporting the wall-clock speedup.
 *  2. Event-loop hot-path cost: one packet-level (garnet-lite)
 *     all-reduce, reported as nanoseconds of host time per simulated
 *     event.
 *
 * Emits both as JSON (--out=FILE, default BENCH_sweep.json) so the
 * perf trajectory is tracked across PRs. --quick shrinks the sweep for
 * CI; checked-in numbers come from the full run.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/support.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "explore/design_space.hh"

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

bool
identicalResults(const std::vector<CandidateResult> &a,
                 const std::vector<CandidateResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].label != b[i].label || a[i].commTime != b[i].commTime ||
            a[i].energyUj != b[i].energyUj) {
            return false;
        }
    }
    return true;
}

/** Per-candidate retired-event-stream digests, pairwise identical. */
bool
identicalDigests(const std::vector<CandidateResult> &a,
                 const std::vector<CandidateResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].digest != b[i].digest)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv);
    banner("sweep_bench",
           "parallel sweep throughput + event-loop hot-path cost");

    // --out is ours, not a SimConfig parameter: consume it before the
    // remaining overrides reach applyOverrides().
    std::string out_path = "BENCH_sweep.json";
    std::erase_if(args.rawOverrides, [&](const auto &kv) {
        if (kv.first != "out")
            return false;
        out_path = kv.second;
        return true;
    });

    // --- 1. The fixed 64-module design-space sweep -------------------
    ExploreSpec spec;
    spec.modules = 64;
    spec.localDims = {1, 2, 4, 8};
    spec.setSplits = args.quick ? std::vector<int>{1, 8}
                                : std::vector<int>{1, 4, 16};
    spec.bytes = args.quick ? 128 * KiB : 1 * MiB;
    // For the report only: parallelFor resolves --jobs=0 (every
    // hardware thread) itself, and warns on oversubscription.
    const int hw = hardwareThreads();
    const int par_jobs = args.jobs > 0 ? args.jobs : hw;

    const std::size_t candidates = enumerateCandidates(spec).size();
    std::printf("sweep: %d modules, %zu candidates, %s allreduce\n",
                spec.modules, candidates,
                formatBytes(spec.bytes).c_str());

    std::vector<CandidateResult> serial, parallel;
    const double serial_ms =
        wallMs([&] { serial = exploreDesignSpace(spec, 1); });
    const double parallel_ms = wallMs(
        [&] { parallel = exploreDesignSpace(spec, args.jobs); });
    const bool identical = identicalResults(serial, parallel);
    const bool digests_identical = identicalDigests(serial, parallel);
    const double speedup = serial_ms / parallel_ms;

    std::printf("  serial (--jobs 1):   %8.1f ms\n", serial_ms);
    std::printf("  parallel (--jobs %d): %8.1f ms  (%.2fx)\n",
                par_jobs, parallel_ms, speedup);
    std::printf("  ranked results byte-identical: %s\n",
                identical ? "yes" : "NO — DETERMINISM BUG");
    std::printf("  event digests byte-identical:  %s\n",
                digests_identical ? "yes" : "NO — DETERMINISM BUG");
    std::printf("  best: %s\n", serial.front().label.c_str());
    if (!identical)
        fatal("parallel sweep diverged from the serial reference");
    if (!digests_identical)
        fatal("parallel sweep retired a different event stream than "
              "the serial reference");

    // --- 2. Per-event cost on the packet-level hot path --------------
    SimConfig cfg;
    cfg.torus(4, 4, 4);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    cfg.backend = NetworkBackend::GarnetLite;
    applyOverrides(args, cfg);
    const Bytes ev_bytes = args.quick ? 1 * MiB : 4 * MiB;

    std::uint64_t events = 0;
    Tick comm = 0;
    const double event_ms = wallMs([&] {
        Cluster cluster(cfg);
        comm = cluster.runCollective(CollectiveKind::AllReduce, ev_bytes);
        events = cluster.eventQueue().executedEvents();
    });
    const double per_event_ns = event_ms * 1e6 / double(events);
    std::printf("hot path: garnet-lite 4x4x4 allreduce %s: "
                "%llu events, %.1f ms, %.0f ns/event\n",
                formatBytes(ev_bytes).c_str(),
                static_cast<unsigned long long>(events), event_ms,
                per_event_ns);

    // --- Emit the JSON record ----------------------------------------
    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", out_path.c_str());
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"sweep\",\n"
        "  \"quick\": %s,\n"
        "  \"hardware_threads\": %d,\n"
        "  \"sweep\": {\n"
        "    \"modules\": %d,\n"
        "    \"candidates\": %zu,\n"
        "    \"bytes\": %llu,\n"
        "    \"serial_ms\": %.1f,\n"
        "    \"parallel_ms\": %.1f,\n"
        "    \"parallel_jobs\": %d,\n"
        "    \"speedup\": %.3f,\n"
        "    \"results_identical\": %s,\n"
        "    \"digests_identical\": %s,\n"
        "    \"best\": \"%s\"\n"
        "  },\n"
        "  \"event_loop\": {\n"
        "    \"config\": \"garnet-lite torus-4x4x4 allreduce\",\n"
        "    \"bytes\": %llu,\n"
        "    \"events\": %llu,\n"
        "    \"wall_ms\": %.1f,\n"
        "    \"per_event_ns\": %.1f,\n"
        "    \"comm_cycles\": %llu\n"
        "  }\n"
        "}\n",
        args.quick ? "true" : "false", hw,
        spec.modules, candidates,
        static_cast<unsigned long long>(spec.bytes), serial_ms,
        parallel_ms, par_jobs, speedup, identical ? "true" : "false",
        digests_identical ? "true" : "false",
        serial.front().label.c_str(),
        static_cast<unsigned long long>(ev_bytes),
        static_cast<unsigned long long>(events), event_ms, per_event_ns,
        static_cast<unsigned long long>(comm));
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

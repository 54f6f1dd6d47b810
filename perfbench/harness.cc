/**
 * @file
 * perfbench — runs one benchmark workload once and prints one JSON line
 * with its host cost and its simulated outputs. perfbench/run.py runs
 * it repeatedly, checks the outputs against perfbench/goldens.json and
 * reports the fastest repetition.
 *
 *   perfbench --workload=NAME --variant=K            untraced run
 *   perfbench --workload=NAME --variant=K --spans=F  traced run
 *   perfbench --fingerprint                          build description
 *
 * The untraced run drives the simulator through its public API exactly
 * as users do: Cluster, WorkloadRun, PipelineRun, exportMetrics. The
 * traced run builds the same platform by hand (traced_platform.hh),
 * runs the same workload on it with a span around every layer
 * boundary, and writes the spans to F. Both print the same simulated
 * outputs; run.py requires them to be equal.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "core/cluster.hh"
#include "explore/design_space.hh"
#include "span_tracer.hh"
#include "traced_platform.hh"
#include "workload/models.hh"
#include "workload/pipeline.hh"
#include "workload/trainer.hh"

using namespace astra;
using perfbench::Span;
using perfbench::SpanTracer;
using perfbench::TracedPlatform;

// Present only when the UBSan runtime is linked in (GCC defines no
// macro for -fsanitize=undefined).
extern "C" __attribute__((weak)) void
__ubsan_handle_builtin_unreachable(void *);

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

// --- workloads ----------------------------------------------------------
//
// Each workload has kVariants input variants (run.py maps the seed onto
// one). A variant nudges one input inside a band narrow enough that the
// run length and the memory peak stay the same to within a few percent,
// while the retired event stream, and so the digest, differs. Stepping
// the microbatch count or garnet-lite's link latency instead moved the
// peak memory by up to 40% from one step to the next.
//
// Every workload is sized so that one run takes well under a second.
// run.py reports the fastest of many runs, and only runs that short fit
// between the bursts of a shared host's neighbours (perfbench/README.md).

constexpr int kVariants = 8;

SimConfig
torusPlatform(int m, int h, int v, NetworkBackend backend)
{
    SimConfig cfg;
    cfg.torus(m, h, v);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    cfg.backend = backend;
    cfg.digest = true;
    return cfg;
}

/** The paper's co-design loop: a 72-candidate, 16-module sweep. */
ExploreSpec
sweepSpec(int variant)
{
    ExploreSpec spec;
    spec.modules = 16;
    spec.localDims = {1, 2, 4, 8};
    spec.setSplits = {1, 4, 16};
    spec.bytes = 64 * KiB + Bytes(variant) * 256;
    return spec;
}

/** Fig. 17's data-parallel ResNet-50 on a 16-NPU torus, one pass. */
SimConfig
resnetPlatform()
{
    return torusPlatform(2, 2, 4, NetworkBackend::Analytical);
}

TrainerOptions
resnetOptions(int variant)
{
    return TrainerOptions{.numPasses = 1,
                          .computeScale = 1.0 + 0.002 * variant};
}

/**
 * Packet-level garnet-lite all-reduce of 1 MiB on a 4x4x4 torus; the
 * variant stretches the per-message endpoint delay.
 */
SimConfig
garnetPlatform(int variant)
{
    SimConfig cfg = torusPlatform(4, 4, 4, NetworkBackend::GarnetLite);
    cfg.endpointDelay += Tick(variant);
    return cfg;
}

constexpr Bytes kGarnetBytes = 1 * MiB;

/** GPT-2 under the GPipe schedule across a 4-stage pipeline. */
SimConfig
gptPlatform()
{
    return torusPlatform(2, 4, 4, NetworkBackend::Analytical);
}

WorkloadSpec
gptSpec()
{
    return gptWorkload(GptConfig{});
}

PipelineOptions
gptOptions(int variant)
{
    return PipelineOptions{.numPasses = 1,
                           .microbatches = 512,
                           .computeScale = 1.0 + 0.001 * variant};
}

// --- results ------------------------------------------------------------

/** The simulated outputs a run is checked on (goldens.json). */
struct Outputs
{
    std::vector<std::uint64_t> digest; //!< per platform simulated
    std::vector<Tick> simCycles;       //!< comm time or makespan
    std::vector<double> energyUj;
    double ratio = 0; //!< exposed-comm (training) or bubble (pipeline)
    std::uint64_t events = 0;
    std::uint64_t delivered = 0;
    std::uint64_t byteHops = 0;
    std::uint64_t lost = 0;
    std::uint64_t issuedChunks = 0;
    std::uint64_t completedChunks = 0;
    bool completed = true;

    /** Fold one finished platform into the outputs. */
    void
    add(std::uint64_t dig, Tick cycles, const NetworkApi &net,
        const EventQueue &eq, const MetricRegistry &m, bool done)
    {
        digest.push_back(dig);
        simCycles.push_back(cycles);
        energyUj.push_back(net.energy().totalUj());
        events += eq.executedEvents();
        delivered += net.deliveredMessages();
        byteHops += net.byteHops();
        lost += net.lostMessages();
        issuedChunks += std::uint64_t(
            m.group("sys").counter("issued.chunks"));
        completedChunks += std::uint64_t(
            m.group("sys").counter("completed.chunks"));
        completed = completed && done;
    }
};

struct RunResult
{
    double wallS = 0;
    double cpuS = 0;
    double setupS = 0;
    double peakRssMb = 0;
    std::vector<double> candidateS; //!< host seconds per platform
    std::size_t slabBytes = 0;      //!< largest event-slab footprint
    Outputs out;
};

// --- untraced runs: the public API, as users drive it -------------------

void
sweepUntraced(int variant, RunResult &r)
{
    const ExploreSpec spec = sweepSpec(variant);
    auto s0 = Clock::now();
    std::vector<CandidateResult> candidates = enumerateCandidates(spec);
    r.setupS += secondsSince(s0);
    // SweepRunner::evaluate's per-candidate body, serially, with the
    // platform build timed on its own.
    for (const CandidateResult &c : candidates) {
        const auto c0 = Clock::now();
        SimConfig cfg = c.cfg;
        cfg.digest = true;
        {
            const auto b0 = Clock::now();
            Cluster cluster(cfg);
            r.setupS += secondsSince(b0);
            const Tick comm = cluster.runCollective(spec.kind, spec.bytes);
            const MetricRegistry m = cluster.exportMetrics();
            r.out.add(cluster.digest(), comm, cluster.network(),
                      cluster.eventQueue(), m,
                      cluster.outcome() == RunOutcome::Completed);
            r.slabBytes =
                std::max(r.slabBytes, cluster.eventQueue().slabBytes());
        }
        r.candidateS.push_back(secondsSince(c0));
    }
}

void
garnetUntraced(int variant, RunResult &r)
{
    const auto b0 = Clock::now();
    Cluster cluster(garnetPlatform(variant));
    r.setupS += secondsSince(b0);
    const Tick comm =
        cluster.runCollective(CollectiveKind::AllReduce, kGarnetBytes);
    const MetricRegistry m = cluster.exportMetrics();
    r.out.add(cluster.digest(), comm, cluster.network(), cluster.eventQueue(),
              m, cluster.outcome() == RunOutcome::Completed);
    r.slabBytes = cluster.eventQueue().slabBytes();
}

void
resnetUntraced(int variant, RunResult &r)
{
    const auto b0 = Clock::now();
    Cluster cluster(resnetPlatform());
    WorkloadRun run(cluster, resnet50Workload(), resnetOptions(variant));
    r.setupS += secondsSince(b0);
    const Tick makespan = run.run();
    const MetricRegistry m = cluster.exportMetrics();
    r.out.add(cluster.digest(), makespan, cluster.network(),
              cluster.eventQueue(), m,
              cluster.outcome() == RunOutcome::Completed);
    r.out.ratio = run.exposedRatio();
    r.slabBytes = cluster.eventQueue().slabBytes();
}

void
gptUntraced(int variant, RunResult &r)
{
    const auto b0 = Clock::now();
    Cluster cluster(gptPlatform());
    PipelineRun run(cluster, gptSpec(), gptOptions(variant));
    r.setupS += secondsSince(b0);
    const Tick makespan = run.run();
    const MetricRegistry m = cluster.exportMetrics();
    r.out.add(cluster.digest(), makespan, cluster.network(),
              cluster.eventQueue(), m,
              cluster.outcome() == RunOutcome::Completed);
    r.out.ratio = run.bubbleRatio();
    r.slabBytes = cluster.eventQueue().slabBytes();
}

// --- traced runs: hand-wired platform, spans at every boundary ----------

/**
 * The workload of a collective run is its request: built in a
 * workload.build span so every workload has one.
 */
CollectiveRequest
buildRequest(CollectiveKind kind, Bytes bytes, SpanTracer &tr)
{
    SpanTracer::Scope span(tr, Span::WorkloadBuild);
    CollectiveRequest req;
    req.kind = kind;
    req.bytes = bytes;
    return req;
}

/** Fold a traced platform into @p r after its export span. */
void
addTraced(TracedPlatform &p, Tick cycles, SpanTracer &tr, RunResult &r,
          bool done)
{
    MetricRegistry m;
    {
        SpanTracer::Scope span(tr, Span::ClusterExport);
        m = p.exportMetrics();
    }
    r.out.add(p.eventQueue().digest(), cycles, p.network(), p.eventQueue(),
              m, done && p.drained());
    r.slabBytes = std::max(r.slabBytes, p.eventQueue().slabBytes());
}

std::unique_ptr<TracedPlatform>
buildTraced(const SimConfig &cfg, SpanTracer &tr)
{
    SpanTracer::Scope span(tr, Span::ClusterBuild);
    return std::make_unique<TracedPlatform>(cfg, tr);
}

void
sweepTraced(int variant, SpanTracer &tr, RunResult &r)
{
    const ExploreSpec spec = sweepSpec(variant);
    std::vector<CandidateResult> candidates;
    {
        SpanTracer::Scope span(tr, Span::WorkloadBuild);
        candidates = enumerateCandidates(spec);
    }
    for (const CandidateResult &c : candidates) {
        const auto c0 = Clock::now();
        SimConfig cfg = c.cfg;
        cfg.digest = true;
        auto p = buildTraced(cfg, tr);
        const Tick comm =
            p->runCollective(buildRequest(spec.kind, spec.bytes, tr));
        addTraced(*p, comm, tr, r, true);
        p.reset();
        r.candidateS.push_back(secondsSince(c0));
    }
}

void
garnetTraced(int variant, SpanTracer &tr, RunResult &r)
{
    auto p = buildTraced(garnetPlatform(variant), tr);
    const Tick comm = p->runCollective(
        buildRequest(CollectiveKind::AllReduce, kGarnetBytes, tr));
    addTraced(*p, comm, tr, r, true);
}

/**
 * WorkloadRun / PipelineRun, unrolled so the workload build and the
 * event loop get their own spans: construct one @p Node per NPU, start
 * them all, drain the queue. @return the makespan.
 */
template <typename Node, typename Options>
Tick
runNodes(TracedPlatform &p, const WorkloadSpec &spec, const Options &opts,
         SpanTracer &tr, std::vector<std::unique_ptr<Node>> &nodes,
         int &unfinished)
{
    {
        SpanTracer::Scope span(tr, Span::WorkloadBuild);
        unfinished = p.numNodes();
        nodes.reserve(std::size_t(p.numNodes()));
        for (NodeId n = 0; n < p.numNodes(); ++n) {
            nodes.push_back(std::make_unique<Node>(
                p.node(n), spec, opts, [&unfinished] { --unfinished; }));
        }
    }
    {
        SpanTracer::Scope span(tr, Span::Loop);
        for (auto &n : nodes)
            n->start();
        p.eventQueue().run();
    }
    Tick makespan = 0;
    for (const auto &n : nodes)
        makespan = std::max(makespan, n->totalTime());
    return makespan;
}

void
resnetTraced(int variant, SpanTracer &tr, RunResult &r)
{
    auto p = buildTraced(resnetPlatform(), tr);
    WorkloadSpec spec;
    {
        SpanTracer::Scope span(tr, Span::WorkloadBuild);
        spec = resnet50Workload();
    }
    std::vector<std::unique_ptr<NodeTrainer>> trainers;
    int unfinished = 0;
    const Tick makespan =
        runNodes(*p, spec, resnetOptions(variant), tr, trainers, unfinished);
    addTraced(*p, makespan, tr, r, unfinished == 0);
    // WorkloadRun::exposedRatio: node 0's exposed time over the makespan.
    r.out.ratio = makespan == 0 ? 0
                                : double(trainers.front()->totalExposed()) /
                                      double(makespan);
}

void
gptTraced(int variant, SpanTracer &tr, RunResult &r)
{
    auto p = buildTraced(gptPlatform(), tr);
    WorkloadSpec spec;
    {
        SpanTracer::Scope span(tr, Span::WorkloadBuild);
        spec = gptSpec();
    }
    std::vector<std::unique_ptr<PipelineNode>> nodes;
    int unfinished = 0;
    const Tick makespan =
        runNodes(*p, spec, gptOptions(variant), tr, nodes, unfinished);
    addTraced(*p, makespan, tr, r, unfinished == 0);
    // PipelineRun::bubbleRatio: mean stage bubble over the makespan,
    // each stage represented by the first node holding it.
    const int stages = nodes.front()->numStages();
    double bubble = 0;
    for (int s = 0; s < stages; ++s) {
        for (const auto &n : nodes) {
            if (n->stage() == s) {
                bubble += double(n->stats().bubble);
                break;
            }
        }
    }
    r.out.ratio =
        makespan == 0 ? 0 : bubble / (double(makespan) * stages);
}

struct WorkloadDef
{
    const char *name;
    void (*untraced)(int, RunResult &);
    void (*traced)(int, SpanTracer &, RunResult &);
};

const WorkloadDef kWorkloads[] = {
    {"explore_sweep", sweepUntraced, sweepTraced},
    {"resnet50_train", resnetUntraced, resnetTraced},
    {"garnet_allreduce", garnetUntraced, garnetTraced},
    {"gpt2_pipeline", gptUntraced, gptTraced},
};

// --- output -------------------------------------------------------------

template <typename T, typename Fmt>
std::string
jsonList(const std::vector<T> &v, Fmt fmt)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", " : "") + fmt(v[i]);
    return s + "]";
}

std::string
outputsJson(const Outputs &o)
{
    return strprintf(
        "{\"outcome\": \"%s\", \"digest\": %s, \"sim_cycles\": %s, "
        "\"energy_uj\": %s, \"ratio\": %.17g, \"events\": %llu, "
        "\"net_delivered\": %llu, \"net_byte_hops\": %llu, "
        "\"net_lost\": %llu, \"issued_chunks\": %llu, "
        "\"completed_chunks\": %llu}",
        o.completed ? "completed" : "incomplete",
        jsonList(o.digest,
                 [](std::uint64_t d) {
                     return strprintf("\"%016llx\"",
                                      static_cast<unsigned long long>(d));
                 })
            .c_str(),
        jsonList(o.simCycles,
                 [](Tick t) {
                     return strprintf("%llu",
                                      static_cast<unsigned long long>(t));
                 })
            .c_str(),
        jsonList(o.energyUj,
                 [](double e) { return strprintf("%.17g", e); })
            .c_str(),
        o.ratio, static_cast<unsigned long long>(o.events),
        static_cast<unsigned long long>(o.delivered),
        static_cast<unsigned long long>(o.byteHops),
        static_cast<unsigned long long>(o.lost),
        static_cast<unsigned long long>(o.issuedChunks),
        static_cast<unsigned long long>(o.completedChunks));
}

std::string
spansJson(const SpanTracer &tr)
{
    std::string s = "{";
    for (std::size_t i = 0; i < std::size_t(Span::Count); ++i) {
        const Span k = static_cast<Span>(i);
        const SpanTracer::Totals &t = tr.totals(k);
        s += strprintf("%s\"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                       "\"self_s\": %.9f}",
                       i ? ", " : "", perfbench::spanName(k),
                       static_cast<unsigned long long>(t.count),
                       double(t.totalNs) * 1e-9, double(t.selfNs) * 1e-9);
    }
    return s + "}";
}

/** Build facts that decide whether the numbers mean anything. */
struct Fingerprint
{
    bool optimized = false;
    bool validate = false;
    const char *sanitizer = "none";

    Fingerprint()
    {
#ifdef __OPTIMIZE__
        optimized = true;
#endif
#ifdef ASTRA_VALIDATE
        validate = true;
#endif
        // Runtime validation (off unless a validate build defaults it on)
        // adds checkers to every run, which is a different program too.
        validate = validate || validationAtLeast(ValidateLevel::kBasic);
#if defined(__SANITIZE_ADDRESS__)
        sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
        sanitizer = "thread";
#endif
        if (__ubsan_handle_builtin_unreachable != nullptr)
            sanitizer = "undefined";
    }

    bool measurable() const
    {
        return optimized && !validate && std::strcmp(sanitizer, "none") == 0;
    }

    std::string
    json() const
    {
        return strprintf(
            "{\"compiler\": \"%s\", \"build_type\": \"%s\", "
            "\"optimized\": %s, \"astra_validate\": %s, "
            "\"sanitizer\": \"%s\"}",
            __VERSION__, PERFBENCH_BUILD_TYPE, optimized ? "true" : "false",
            validate ? "true" : "false", sanitizer);
    }
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --variant=0..%d "
                 "[--spans=FILE]\n       perfbench --fingerprint\n",
                 kVariants - 1);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans_path;
    int variant = -1;
    bool fingerprint_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--workload=", 0) == 0)
            workload = a.substr(11);
        else if (a.rfind("--variant=", 0) == 0)
            variant = std::atoi(a.c_str() + 10);
        else if (a.rfind("--spans=", 0) == 0)
            spans_path = a.substr(8);
        else if (a == "--fingerprint")
            fingerprint_only = true;
        else
            return usage();
    }

    const Fingerprint fp;
    if (fingerprint_only) {
        std::printf("%s\n", fp.json().c_str());
        return 0;
    }
    if (!fp.measurable()) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a non-optimized, "
                     "validate or sanitizer build: %s\n",
                     fp.json().c_str());
        return 3;
    }

    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads) {
        if (workload == w.name)
            def = &w;
    }
    if (!def || variant < 0 || variant >= kVariants)
        return usage();

    const bool traced = !spans_path.empty();
    RunResult r;
    SpanTracer tracer;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    if (traced)
        def->traced(variant, tracer, r);
    else
        def->untraced(variant, r);
    r.wallS = secondsSince(t0);
    r.cpuS = cpuSeconds() - cpu0;
    r.peakRssMb = peakRssMb();
    if (r.candidateS.empty())
        r.candidateS.push_back(r.wallS);
    if (traced) {
        r.setupS = double(tracer.totals(Span::ClusterBuild).totalNs +
                          tracer.totals(Span::WorkloadBuild).totalNs) *
                   1e-9;
        // Every issue, send and delivery happens inside a loop span, so
        // the loop's duration splits exactly into these self times;
        // run.py's loop.other_s relies on it.
        std::int64_t covered = 0;
        for (Span s : {Span::Loop, Span::SysIssue, Span::NetSendColl,
                       Span::NetSendP2p, Span::SysRecvColl,
                       Span::SysRecvP2p})
            covered += tracer.totals(s).selfNs;
        ASTRA_CHECK(covered == tracer.totals(Span::Loop).totalNs,
                    "a send or delivery span fell outside the event loop");
    }

    if (traced) {
        std::FILE *f = std::fopen(spans_path.c_str(), "w");
        if (!f)
            fatal("cannot write %s", spans_path.c_str());
        tracer.writeJson(f);
        std::fclose(f);
    }

    std::printf(
        "{\"workload\": \"%s\", \"variant\": %d, \"traced\": %s, "
        "\"wall_s\": %.9f, \"cpu_s\": %.6f, \"setup_s\": %.9f, "
        "\"peak_rss_mb\": %.3f, \"slab_bytes\": %zu, \"candidate_s\": %s, "
        "\"outputs\": %s, \"spans\": %s}\n",
        def->name, variant, traced ? "true" : "false", r.wallS, r.cpuS,
        r.setupS, r.peakRssMb, r.slabBytes,
        jsonList(r.candidateS,
                 [](double s) { return strprintf("%.9f", s); })
            .c_str(),
        outputsJson(r.out).c_str(), spansJson(tracer).c_str());
    return 0;
}

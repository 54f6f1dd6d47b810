/**
 * @file
 * Simulator micro-benchmarks and design-choice ablations
 * (google-benchmark). Not a paper figure: these quantify the
 * simulator's own costs (events/second) and the sensitivity of the
 * modelled communication time to the system-layer knobs that
 * DESIGN.md calls out (chunking, LSQ concurrency, backend
 * granularity, routing mode).
 *
 * Simulated communication time is reported through the "sim_cycles"
 * counter; wall-clock time measures the simulator itself.
 */

#include <benchmark/benchmark.h>

#include "common/event_queue.hh"
#include "common/units.hh"
#include "common/validate.hh"
#include "core/cluster.hh"

namespace
{

using namespace astra;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        int fired = 0;
        for (int i = 0; i < n; ++i)
            eq.schedule(Tick(i % 64), [&fired] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

/**
 * A link-wait re-park storm, the GPT-2 pipeline's pattern: k waiters
 * share one link's free tick. When it arrives, the first waiter takes
 * the link for 16k-32k ticks and every waiter, that one included,
 * re-parks at the new free tick, so the whole group sits on one tick
 * in the rung.
 */
struct ReparkStorm
{
    EventQueue eq;
    Tick freeAt = 0;
    std::uint64_t limit = 1 << 16; //!< events per storm

    void
    wake()
    {
        if (eq.executedEvents() >= limit)
            return;
        if (eq.now() >= freeAt)
            freeAt = eq.now() + 16384 + (eq.executedEvents() * 7919) % 16384;
        eq.schedule(freeAt, [this] { wake(); });
    }
};

/** Arg: waiters per link. Reports ns per retired event. */
void
BM_EventQueueReparkStorm(benchmark::State &state)
{
    const int waiters = static_cast<int>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        ReparkStorm storm;
        for (int i = 0; i < waiters; ++i)
            storm.eq.schedule(0, [&storm] { storm.wake(); });
        storm.eq.run();
        events += storm.eq.executedEvents();
    }
    state.counters["ns_per_event"] = benchmark::Counter(
        double(events),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EventQueueReparkStorm)->Arg(16)->Arg(256);

/** The FNV-1a byte loop Fnv1aDigest::mix must equal (the ablation). */
struct ByteLoopDigest
{
    std::uint64_t h = Fnv1aDigest::kOffsetBasis;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffU;
            h *= Fnv1aDigest::kPrime;
        }
    }
};

/**
 * Digest cost per retired event, folded as the event queue does:
 * (tick, priority, sequence) of a typical stream, eight events per
 * tick at priority 0. Arg 0 is the plain byte loop, arg 1 is
 * Fnv1aDigest::mix, which folds the high zero bytes in one multiply.
 */
template <class Digest>
std::uint64_t
foldEvents(int n, std::uint64_t when)
{
    Digest d;
    for (int i = 0; i < n; ++i) {
        when += (i % 8 == 0) ? 37 : 0;
        d.mix(when);
        d.mix(0);
        d.mix(std::uint64_t(i));
    }
    if constexpr (requires { d.h; })
        return d.h;
    else
        return d.value();
}

void
BM_DigestFoldPerEvent(benchmark::State &state)
{
    const int n = 1 << 16;
    std::uint64_t start = 1000; // a run-time input: no constant folding
    benchmark::DoNotOptimize(start);
    for (auto _ : state) {
        benchmark::DoNotOptimize(state.range(0) == 0
                                     ? foldEvents<ByteLoopDigest>(n, start)
                                     : foldEvents<Fnv1aDigest>(n, start));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DigestFoldPerEvent)->Arg(0)->Arg(1);

void
BM_RingAllReduce(benchmark::State &state)
{
    const Bytes bytes = Bytes(state.range(0)) * KiB;
    Tick cycles = 0;
    for (auto _ : state) {
        SimConfig cfg;
        cfg.torus(1, 8, 1);
        Cluster cluster(cfg);
        cycles = cluster.runCollective(CollectiveKind::AllReduce, bytes);
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_RingAllReduce)->Arg(64)->Arg(1024)->Arg(8192);

void
BM_BackendGranularity(benchmark::State &state)
{
    // Ablation: analytical vs garnet-lite on the same transfer — the
    // wall-clock gap is the price of packet-level modelling.
    const bool garnet = state.range(0) != 0;
    Tick cycles = 0;
    for (auto _ : state) {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        cfg.backend = garnet ? NetworkBackend::GarnetLite
                             : NetworkBackend::Analytical;
        Cluster cluster(cfg);
        cycles =
            cluster.runCollective(CollectiveKind::AllReduce, 1 * MiB);
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    state.SetLabel(garnet ? "garnet-lite" : "analytical");
}
BENCHMARK(BM_BackendGranularity)->Arg(0)->Arg(1);

void
BM_ChunkingAblation(benchmark::State &state)
{
    // Design choice #1 (DESIGN.md): chunks pipeline across phases.
    const int splits = static_cast<int>(state.range(0));
    Tick cycles = 0;
    for (auto _ : state) {
        SimConfig cfg;
        cfg.torus(2, 4, 4);
        cfg.algorithm = AlgorithmFlavor::Enhanced;
        cfg.local.bandwidth = 8 * cfg.package.bandwidth;
        Cluster cluster(cfg);
        cycles = cluster.runCollective(CollectiveKind::AllReduce,
                                       8 * MiB, {}, splits);
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_ChunkingAblation)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void
BM_LsqConcurrencyAblation(benchmark::State &state)
{
    // Design choice: chunks interleaved per LSQ (Sec. IV-B).
    const int conc = static_cast<int>(state.range(0));
    Tick cycles = 0;
    for (auto _ : state) {
        SimConfig cfg;
        cfg.torus(1, 8, 1);
        cfg.lsqConcurrency = conc;
        Cluster cluster(cfg);
        cycles =
            cluster.runCollective(CollectiveKind::AllReduce, 4 * MiB);
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_LsqConcurrencyAblation)->Arg(1)->Arg(2)->Arg(8);

void
BM_RoutingModeAblation(benchmark::State &state)
{
    // Parameter #14: software store-and-forward vs hardware
    // cut-through, visible on the multi-hop all-to-all.
    const bool hardware = state.range(0) != 0;
    Tick cycles = 0;
    for (auto _ : state) {
        SimConfig cfg;
        cfg.torus(1, 8, 1);
        cfg.packetRouting = hardware ? PacketRouting::Hardware
                                     : PacketRouting::Software;
        Cluster cluster(cfg);
        cycles =
            cluster.runCollective(CollectiveKind::AllToAll, 4 * MiB);
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    state.SetLabel(hardware ? "hardware" : "software");
}
BENCHMARK(BM_RoutingModeAblation)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();

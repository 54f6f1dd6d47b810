/**
 * @file
 * End-to-end fault-injection runs (docs/faults.md): deterministic
 * packet loss with timeout/retry on garnet-lite, retries-exhausted
 * degradation, straggler slowdown, and the determinism guarantees
 * (repeat runs and serial-vs-parallel sweeps bit-for-bit identical).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "common/units.hh"
#include "core/cluster.hh"
#include "fault/fault.hh"

namespace astra
{
namespace
{

SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    cfg.digest = true;
    return cfg;
}

TEST(FaultRun, PacketLossRetriesToCompletionOnGarnetLite)
{
    // limit=3 drops with a 3-retry budget: no send can be dropped more
    // than three times, so every chunk eventually completes.
    SimConfig cfg = baseConfig();
    cfg.backend = NetworkBackend::GarnetLite;
    cfg.faultRules = {"drop link=0 every=5 limit=3"};
    cfg.faultTimeout = 100;

    Cluster cluster(cfg);
    const Tick t =
        cluster.runCollective(CollectiveKind::AllReduce, 64 * KiB);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(cluster.outcome(), RunOutcome::Completed);
    EXPECT_TRUE(cluster.failures().empty());
    ASSERT_NE(cluster.faults(), nullptr);
    EXPECT_EQ(cluster.faults()->dropsInjected(), 3u);
    EXPECT_GT(cluster.network().lostMessages(), 0u);

    const StatGroup stats = cluster.aggregateStats();
    EXPECT_GE(stats.counter("fault.retries"), 1.0);
    EXPECT_DOUBLE_EQ(stats.counter("fault.retries_exhausted"), 0.0);
}

TEST(FaultRun, FaultedRunsAreBitForBitReproducible)
{
    auto once = [] {
        SimConfig cfg = baseConfig();
        cfg.backend = NetworkBackend::GarnetLite;
        cfg.faultRules = {"drop link=0 every=5 limit=3",
                          "degrade link=1 from=0 to=5000 factor=0.5",
                          "straggle node=2 factor=1.5"};
        cfg.faultTimeout = 100;
        Cluster cluster(cfg);
        const Tick t =
            cluster.runCollective(CollectiveKind::AllReduce, 64 * KiB);
        return std::make_pair(t, cluster.digest());
    };
    const auto a = once();
    const auto b = once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_NE(a.second, 0u);
}

TEST(FaultRun, ReplansAroundAForeverDownLinkAndCompletes)
{
    // One direction of the bidirectional package ring down forever:
    // pickChannel routes every stream onto the surviving reverse ring,
    // so the run completes without a single loss — slower than a
    // fault-free run, but never degraded.
    auto runWith = [](std::vector<std::string> rules) {
        SimConfig cfg = baseConfig();
        cfg.package.rings = 1; // 2 channels: links 0..3 fwd, 4..7 rev
        cfg.faultRules = std::move(rules);
        Cluster cluster(cfg);
        const Tick t =
            cluster.runCollective(CollectiveKind::AllReduce, 16 * KiB);
        EXPECT_EQ(cluster.outcome(), RunOutcome::Completed);
        EXPECT_EQ(cluster.network().lostMessages(), 0u);
        return t;
    };
    const Tick healthy = runWith({});
    const Tick replanned = runWith({"down link=0 from=0 to=end"});
    EXPECT_GT(replanned, healthy);
}

TEST(FaultRun, RetriesExhaustedEndsDegradedNotFatal)
{
    // Both directions of the package ring down for the whole run: the
    // re-planner has nowhere left to route, the affected sends exhaust
    // their retries, and the run ends Degraded with structured failure
    // records — no fatal anywhere. (A single down direction is NOT
    // enough: pickChannel re-plans onto the reverse ring and the run
    // completes — see PickChannelReplansAroundForeverDownLinks.)
    SimConfig cfg = baseConfig();
    cfg.package.rings = 1; // 2 channels: links 0..3 fwd, 4..7 rev
    cfg.faultRules = {"down link=0 from=0 to=end",
                      "down link=4 from=0 to=end"};
    cfg.faultTimeout = 10;
    cfg.faultMaxRetries = 2;

    Cluster cluster(cfg);
    cluster.runCollective(CollectiveKind::AllReduce, 16 * KiB);
    EXPECT_EQ(cluster.outcome(), RunOutcome::Degraded);
    ASSERT_FALSE(cluster.failures().empty());
    const FailureRecord &f = cluster.failures().front();
    EXPECT_TRUE(f.link == 0 || f.link == 4);
    EXPECT_EQ(f.retries, 2);
    EXPECT_GT(f.tick, 0u);
    EXPECT_FALSE(f.reason.empty());

    const StatGroup stats = cluster.aggregateStats();
    EXPECT_GE(stats.counter("fault.retries_exhausted"), 1.0);

    // The failure report renders in both shapes.
    const std::string text =
        formatFailureReport(cluster.outcome(), cluster.failures());
    EXPECT_NE(text.find("outcome: degraded"), std::string::npos);
    const MetricRegistry reg = cluster.exportMetrics();
    const std::string json = reg.toJson(failureReportJsonMembers(
        cluster.outcome(), cluster.failures()));
    EXPECT_NE(json.find("\"outcome\": \"degraded\""), std::string::npos);
    EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
}

TEST(FaultRun, DegradedRunsAreReproducibleToo)
{
    auto once = [] {
        SimConfig cfg = baseConfig();
        cfg.package.rings = 1;
        cfg.faultRules = {"down link=0 from=0 to=end",
                          "down link=4 from=0 to=end"};
        cfg.faultTimeout = 10;
        cfg.faultMaxRetries = 2;
        Cluster cluster(cfg);
        cluster.runCollective(CollectiveKind::AllReduce, 16 * KiB);
        return std::make_pair(cluster.digest(),
                              cluster.failures().size());
    };
    const auto a = once();
    const auto b = once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(FaultRun, StragglerSlowsTheRunDown)
{
    auto timeWith = [](double factor) {
        SimConfig cfg = baseConfig();
        if (factor > 1.0)
            cfg.faultRules = {
                strprintf("straggle node=1 factor=%.1f", factor)};
        Cluster cluster(cfg);
        return cluster.runCollective(CollectiveKind::AllReduce,
                                     256 * KiB);
    };
    const Tick normal = timeWith(1.0);
    const Tick straggled = timeWith(4.0);
    EXPECT_GT(straggled, normal);
}

TEST(FaultRun, StragglerDelayPastTheTickRangeIsFatal)
{
    // A finite factor the parser accepts, but whose scaled endpoint
    // delay does not fit a Tick: the run must stop, not wrap the delay
    // around to a small one. Each node stretches its endpoint delay
    // once, when the fault layer is wired, so building the cluster
    // already stops.
    SimConfig cfg = baseConfig();
    cfg.faultRules = {"straggle node=0 factor=1e30"};
    EXPECT_THROW(Cluster cluster(cfg), FatalError);
}

TEST(FaultRun, EmptyPlanIsBitForBitIdenticalToNoPlan)
{
    // Retry-policy keys alone leave the plan empty: no FaultManager is
    // built and the digest must match a config without any fault keys.
    auto digestOf = [](bool with_keys) {
        SimConfig cfg = baseConfig();
        if (with_keys) {
            cfg.faultTimeout = 123;
            cfg.faultMaxRetries = 9;
        }
        Cluster cluster(cfg);
        cluster.runCollective(CollectiveKind::AllReduce, 64 * KiB);
        EXPECT_EQ(cluster.faults(), nullptr);
        return cluster.digest();
    };
    EXPECT_EQ(digestOf(true), digestOf(false));
}

TEST(FaultRun, SweepOverFaultScenariosIsSerialParallelIdentical)
{
    // Four fault scenarios, each its own Cluster: a --jobs=4 sweep must
    // reproduce the serial sweep's digests and timings exactly.
    const std::vector<std::string> scenarios = {
        "drop link=0 every=7 limit=2",
        "degrade link=0 from=0 to=10000 factor=0.25",
        "straggle node=3 factor=2",
        "down link=1 from=100 to=2000",
    };
    auto sweep = [&](int jobs) {
        std::vector<std::pair<Tick, std::uint64_t>> results(
            scenarios.size());
        parallelFor(jobs, scenarios.size(), [&](std::size_t i) {
            SimConfig cfg = baseConfig();
            cfg.backend = NetworkBackend::GarnetLite;
            cfg.faultRules = {scenarios[i]};
            cfg.faultTimeout = 100;
            Cluster cluster(cfg);
            const Tick t = cluster.runCollective(
                CollectiveKind::AllReduce, 64 * KiB);
            results[i] = {t, cluster.digest()};
        });
        return results;
    };
    EXPECT_EQ(sweep(1), sweep(4));
}

} // namespace
} // namespace astra

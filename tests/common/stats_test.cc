#include <gtest/gtest.h>

#include <string>

#include "common/stats.hh"
#include "tests/support/json_lite.hh"

namespace astra
{
namespace
{

using testsupport::jsonValid;

TEST(SafeDiv, ZeroDurationIsZeroNotNaN)
{
    // The zero-elapsed guard: a cluster that ran zero ticks reports
    // 0.0 utilization, never NaN or Inf.
    EXPECT_DOUBLE_EQ(safeDiv(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeDiv(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeDiv(1.0, -2.0), 0.0);
    EXPECT_DOUBLE_EQ(safeDiv(6.0, 3.0), 2.0);
    EXPECT_FALSE(std::isnan(safeDiv(1e300, 0.0)));
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.total(), 0.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 0.0);
    EXPECT_DOUBLE_EQ(a.maximum(), 0.0);
}

TEST(Accumulator, TracksMoments)
{
    Accumulator a;
    a.sample(3);
    a.sample(1);
    a.sample(8);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 12.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 1.0);
    EXPECT_DOUBLE_EQ(a.maximum(), 8.0);
}

TEST(Accumulator, MergeCombines)
{
    Accumulator a, b;
    a.sample(1);
    a.sample(2);
    b.sample(10);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.maximum(), 10.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 1.0);
    // Merging an empty accumulator changes nothing.
    Accumulator empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
}

TEST(StatGroup, CountersDefaultToZero)
{
    StatGroup g;
    EXPECT_DOUBLE_EQ(g.counter("missing"), 0.0);
    g.inc("x");
    g.inc("x", 2.5);
    EXPECT_DOUBLE_EQ(g.counter("x"), 3.5);
}

TEST(StatGroup, AccumulatorsByName)
{
    StatGroup g;
    g.sample("lat", 5);
    g.sample("lat", 15);
    EXPECT_EQ(g.accumulator("lat").count(), 2u);
    EXPECT_DOUBLE_EQ(g.accumulator("lat").mean(), 10.0);
    EXPECT_EQ(g.accumulator("absent").count(), 0u);
}

TEST(StatGroup, MergeAddsCountersAndAccs)
{
    StatGroup a, b;
    a.inc("n", 1);
    b.inc("n", 2);
    b.inc("only-b", 5);
    a.sample("q", 1);
    b.sample("q", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.counter("n"), 3.0);
    EXPECT_DOUBLE_EQ(a.counter("only-b"), 5.0);
    EXPECT_EQ(a.accumulator("q").count(), 2u);
    EXPECT_DOUBLE_EQ(a.accumulator("q").total(), 4.0);
}

TEST(StatGroup, ClearDropsEverything)
{
    StatGroup g;
    g.inc("a");
    g.sample("b", 1);
    g.record("c", 1);
    g.clear();
    EXPECT_TRUE(g.counters().empty());
    EXPECT_TRUE(g.accumulators().empty());
    EXPECT_TRUE(g.histograms().empty());
}

TEST(StatGroup, AscendingSetterMatchesSet)
{
    // Hinted inserts land where set() puts them, in or out of order,
    // next to keys that sort before, between and after the run.
    StatGroup by_set, by_run;
    for (StatGroup *g : {&by_set, &by_run}) {
        g->set("byte.hops", 1);
        g->set("lost.messages", 2);
        g->set("util.mean", 3);
    }
    StatGroup::AscendingSetter run(by_run);
    for (const char *name : {"link.0000.util", "link.0003.util",
                             "link.0042.util", "link.10000.util",
                             "link.0007.util", "lost.messages"}) {
        by_set.set(name, 0.25);
        run.set(name, 0.25);
    }
    EXPECT_EQ(by_run.toJson(), by_set.toJson());
    EXPECT_EQ(by_run.counters().size(), 8u);
}

TEST(Histogram, BucketBoundaries)
{
    // Bucket 0: v < 1. Bucket i >= 1: [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(0.0), 0);
    EXPECT_EQ(Histogram::bucketOf(0.999), 0);
    EXPECT_EQ(Histogram::bucketOf(1.0), 1);
    EXPECT_EQ(Histogram::bucketOf(1.999), 1);
    EXPECT_EQ(Histogram::bucketOf(2.0), 2);
    EXPECT_EQ(Histogram::bucketOf(3.0), 2);
    EXPECT_EQ(Histogram::bucketOf(4.0), 3);
    EXPECT_EQ(Histogram::bucketOf(1024.0), 11);
    // A sample sits inside its bucket's [lower, upper) range.
    for (double v : {0.5, 1.0, 7.0, 100.0, 65536.0, 1e15}) {
        const int b = Histogram::bucketOf(v);
        EXPECT_GE(v, Histogram::lowerBound(b)) << v;
        EXPECT_LT(v, Histogram::upperBound(b)) << v;
    }
    // Huge values saturate into the last bucket instead of overflowing.
    EXPECT_EQ(Histogram::bucketOf(1e300), Histogram::kBuckets - 1);
}

TEST(Histogram, RecordsAndCounts)
{
    Histogram h;
    h.record(0.5);
    h.record(1.5);
    h.record(1.6);
    h.record(100.0);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(Histogram::bucketOf(100.0)), 1u);
    EXPECT_DOUBLE_EQ(h.minimum(), 0.5);
    EXPECT_DOUBLE_EQ(h.maximum(), 100.0);
    // Negative samples clamp to zero rather than underflowing.
    h.record(-3.0);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_DOUBLE_EQ(h.minimum(), 0.0);
}

TEST(Histogram, PercentilesAreClampedEstimates)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(i);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    // Interpolated mid-percentiles stay within the observed range and
    // are monotone.
    const double p50 = h.percentile(50);
    const double p90 = h.percentile(90);
    const double p99 = h.percentile(99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 100.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Empty histogram: all percentiles are zero.
    Histogram empty;
    EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
}

TEST(Histogram, MergeIsExact)
{
    Histogram a, b;
    a.record(1);
    a.record(500);
    b.record(0.25);
    b.record(500);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.bucketCount(0), 1u);
    EXPECT_EQ(a.bucketCount(1), 1u);
    EXPECT_EQ(a.bucketCount(Histogram::bucketOf(500)), 2u);
    EXPECT_DOUBLE_EQ(a.minimum(), 0.25);
    EXPECT_DOUBLE_EQ(a.maximum(), 500.0);
}

TEST(StatGroup, MergeCombinesHistogramsOnOverlap)
{
    StatGroup a, b;
    a.record("lat", 4);
    b.record("lat", 8);
    b.record("only-b", 1);
    a.merge(b);
    EXPECT_EQ(a.histogram("lat").count(), 2u);
    EXPECT_DOUBLE_EQ(a.histogram("lat").maximum(), 8.0);
    EXPECT_EQ(a.histogram("only-b").count(), 1u);
}

TEST(StatGroup, JsonIsWellFormed)
{
    StatGroup g;
    g.inc("bytes.total", 4096);
    g.sample("queue.P0", 17);
    g.record("hop.latency", 12);
    g.record("hop.latency", 900);
    std::string err;
    const std::string json = g.toJson();
    EXPECT_TRUE(jsonValid(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"bytes.total\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(MetricRegistry, GroupsMergeAndRenderValidJson)
{
    MetricRegistry a, b;
    a.group("sys").inc("completed.chunks", 3);
    a.group("net").record("hop.latency", 40);
    b.group("sys").inc("completed.chunks", 2);
    b.group("workload").set("makespan.ticks", 1e6);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.group("sys").counter("completed.chunks"), 5.0);
    EXPECT_DOUBLE_EQ(a.group("workload").counter("makespan.ticks"), 1e6);

    const std::string json = a.toJson();
    std::string err;
    EXPECT_TRUE(jsonValid(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"astra-metrics-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"groups\""), std::string::npos);

    // Metric names with characters JSON cares about must round-trip
    // into valid output.
    MetricRegistry weird;
    weird.group("g").inc("odd\"name\\with\tchars\x01");
    EXPECT_TRUE(jsonValid(weird.toJson(), &err)) << err;
}

TEST(MetricRegistry, ConstLookupDoesNotCreate)
{
    const MetricRegistry reg;
    EXPECT_DOUBLE_EQ(reg.group("absent").counter("x"), 0.0);
    EXPECT_TRUE(reg.groups().empty());
}

} // namespace
} // namespace astra

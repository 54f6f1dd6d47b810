#include <gtest/gtest.h>

#include "common/units.hh"
#include "workload/models.hh"
#include "workload/pipeline.hh"
#include "workload/trainer.hh"

namespace astra
{
namespace
{

TEST(EndToEnd, Resnet50DataParallelTrainingRuns)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadRun run(cluster, resnet50Workload(),
                    TrainerOptions{.numPasses = 1});
    const Tick t = run.run();
    EXPECT_GT(t, 0u);
    EXPECT_EQ(run.layerStats().size(), 54u);
    // Every layer moved its gradients.
    for (const LayerRunStats &s : run.layerStats())
        EXPECT_GT(s.commWg, 0u);
    // ResNet-50 at small scale is strongly compute bound (Fig. 17:
    // 4.1% exposed at 8 NPUs; our absolute numbers differ but the
    // regime must match).
    EXPECT_LT(run.exposedRatio(), 0.15);
}

TEST(EndToEnd, TransformerHybridMatchesFig13Shape)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadRun run(cluster, transformerWorkload(),
                    TrainerOptions{.numPasses = 2});
    run.run();
    const auto &stats = run.layerStats();
    ASSERT_EQ(stats.size(), 8u);
    // Fig. 13: encoder layers 1..6 show uniform communication latency;
    // allow 25% spread for scheduling noise.
    const double ref = static_cast<double>(stats[1].commTotal());
    ASSERT_GT(ref, 0.0);
    for (std::size_t i = 2; i <= 6; ++i) {
        const double v = static_cast<double>(stats[i].commTotal());
        EXPECT_GT(v / ref, 0.75) << "layer " << i;
        EXPECT_LT(v / ref, 1.25) << "layer " << i;
    }
    // The embedding layer communicates nothing.
    EXPECT_EQ(stats[0].commTotal(), 0u);
}

TEST(EndToEnd, ExposedRatioGrowsWithSystemSize)
{
    // Fig. 17's trend on a reduced scale.
    WorkloadSpec spec = resnet50Workload();
    double prev = -1;
    for (int h : {2, 4}) {
        SimConfig cfg;
        cfg.torus(2, h, 2);
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
        run.run();
        EXPECT_GT(run.exposedRatio(), prev) << "2x" << h << "x2";
        prev = run.exposedRatio();
    }
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    auto once = [] {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        Cluster cluster(cfg);
        WorkloadRun run(cluster, transformerWorkload(),
                        TrainerOptions{.numPasses = 1});
        run.run();
        return std::make_pair(run.makespan(),
                              cluster.eventQueue().executedEvents());
    };
    auto a = once();
    auto b = once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(EndToEnd, GarnetLiteBackendTrainsToo)
{
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    cfg.backend = NetworkBackend::GarnetLite;
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(4, 20'000, 256 * KiB,
                                          ParallelismKind::Data);
    WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 2});
    EXPECT_GT(run.run(), 0u);
}

TEST(EndToEnd, DlrmOnAllToAllPlatform)
{
    SimConfig cfg;
    cfg.allToAll(2, 4, 2);
    Cluster cluster(cfg);
    WorkloadRun run(cluster, dlrmWorkload(),
                    TrainerOptions{.numPasses = 2});
    EXPECT_GT(run.run(), 0u);
    StatGroup stats = cluster.aggregateStats();
    EXPECT_GT(stats.counter("sent.bytes.alltoall"), 0.0);
    EXPECT_GT(stats.counter("sent.bytes.local"), 0.0);
}

TEST(EndToEnd, WorkloadFileDrivesTheSameResultAsTheSpec)
{
    // Serialize -> parse -> run must equal running the generated spec
    // directly (the Fig. 8 file format is the source of truth).
    WorkloadSpec spec = transformerWorkload();
    const char *path = "/tmp/astra_e2e_workload.txt";
    spec.writeFile(path);
    WorkloadSpec parsed = WorkloadSpec::parseFile(path);
    Tick direct, via_file;
    {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
        direct = run.run();
    }
    {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        Cluster cluster(cfg);
        WorkloadRun run(cluster, parsed, TrainerOptions{.numPasses = 1});
        via_file = run.run();
    }
    EXPECT_EQ(direct, via_file);
    std::remove(path);
}

TEST(EndToEnd, LifoAndFifoAgreeUnderHighLocalBandwidth)
{
    // Fig. 16's observation: very high local bandwidth enforces
    // in-order chunk drainage, making LIFO behave like FIFO.
    WorkloadSpec spec = resnet50Workload();
    Tick lifo, fifo;
    {
        SimConfig cfg;
        cfg.torus(2, 4, 4);
        cfg.local.bandwidth = 8 * cfg.package.bandwidth * 8;
        cfg.schedulingPolicy = SchedulingPolicy::LIFO;
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
        lifo = run.run();
    }
    {
        SimConfig cfg;
        cfg.torus(2, 4, 4);
        cfg.local.bandwidth = 8 * cfg.package.bandwidth * 8;
        cfg.schedulingPolicy = SchedulingPolicy::FIFO;
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
        fifo = run.run();
    }
    const double ratio = double(lifo) / double(fifo);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

/**
 * Every node's Sys::stats() merged in node order (what a platform
 * wired by hand does) must render exactly like the Cluster's own fold
 * of the nodes' records, and carry @p key.
 */
void
expectNodeAndClusterNamingAgree(Cluster &cluster, const std::string &key)
{
    StatGroup merged;
    for (NodeId n = 0; n < cluster.numNodes(); ++n)
        merged.merge(cluster.node(n).stats());
    const MetricRegistry reg = cluster.exportMetrics();
    const StatGroup &sys = reg.group("sys");
    EXPECT_EQ(merged.toJson(), sys.toJson());
    const bool has_key = sys.counters().count(key) ||
                         sys.accumulators().count(key) ||
                         sys.histograms().count(key);
    EXPECT_TRUE(has_key) << key;
}

TEST(EndToEnd, NodeAndClusterStatNamingAgreeOnLayerTaggedTraining)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadRun run(cluster, resnet50Workload(),
                    TrainerOptions{.numPasses = 1});
    run.run();
    expectNodeAndClusterNamingAgree(cluster, "layer0.network.P1");
}

TEST(EndToEnd, NodeAndClusterStatNamingAgreeOnGpt2Pipeline)
{
    SimConfig cfg;
    cfg.torus(2, 4, 4);
    Cluster cluster(cfg);
    PipelineRun run(cluster, gptWorkload(),
                    PipelineOptions{.numPasses = 1, .microbatches = 16});
    run.run();
    expectNodeAndClusterNamingAgree(cluster, "sent.bytes.p2p");
}

TEST(EndToEnd, NodeAndClusterStatNamingAgreeOnFaultyGarnetRun)
{
    SimConfig cfg;
    cfg.loadFile(std::string(ASTRA_SOURCE_DIR) +
                 "/configs/faulty_4x4x4.cfg");
    cfg.backend = NetworkBackend::GarnetLite;
    Cluster cluster(cfg);
    cluster.runCollective(CollectiveKind::AllReduce, 1 * MiB);
    expectNodeAndClusterNamingAgree(cluster, "fault.retries");
}

} // namespace
} // namespace astra

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/units.hh"
#include "workload/models.hh"
#include "workload/pipeline.hh"

namespace astra
{
namespace
{

TEST(Pipeline, P2PSendAndExpectMatch)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    Cluster cluster(cfg);
    Tick got = kTickInvalid;
    cluster.node(3).expectP2P(0, 42, [&] {
        got = cluster.eventQueue().now();
    });
    cluster.node(0).sendP2P(3, 64 * KiB, 42);
    cluster.run();
    EXPECT_NE(got, kTickInvalid);
    EXPECT_GT(got, 0u);
}

TEST(Pipeline, P2PEarlyArrivalIsBuffered)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Cluster cluster(cfg);
    cluster.node(0).sendP2P(1, 1024, 7);
    cluster.run(); // arrives before anyone expects it
    bool fired = false;
    cluster.node(1).expectP2P(0, 7, [&] { fired = true; });
    EXPECT_TRUE(fired); // satisfied immediately from the buffer
}

TEST(Pipeline, P2PErrors)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Cluster cluster(cfg);
    EXPECT_THROW(cluster.node(0).sendP2P(9, 100, 1), FatalError);
    EXPECT_THROW(cluster.node(0).sendP2P(1, 0, 1), FatalError);
    cluster.node(0).expectP2P(1, 5, [] {});
    EXPECT_THROW(cluster.node(0).expectP2P(1, 5, [] {}), FatalError);
}

TEST(Pipeline, TrainsResnetAcrossFourStages)
{
    SimConfig cfg;
    cfg.torus(2, 4, 1); // pipeline over the horizontal dimension
    Cluster cluster(cfg);
    PipelineRun run(cluster, resnet50Workload(),
                    PipelineOptions{.numPasses = 1, .microbatches = 4});
    const Tick t = run.run();
    EXPECT_GT(t, 0u);
    EXPECT_EQ(run.numStages(), 4);
    int layers = 0;
    for (int s = 0; s < 4; ++s) {
        EXPECT_GT(run.stage(s).compute, 0u);
        layers += run.stage(s).layers;
    }
    EXPECT_EQ(layers, 54);
    // Intermediate stages stall during fill/drain: bubbles exist.
    EXPECT_GT(run.bubbleRatio(), 0.0);
    // The data-parallel (local) groups all-reduced stage weights.
    EXPECT_GT(run.stage(0).commWg, 0u);
}

TEST(Pipeline, MoreMicrobatchesShrinkTheBubble)
{
    // The GPipe bubble fraction ~ (S-1)/(S-1+M): more microbatches,
    // smaller bubble.
    auto bubble = [](int m) {
        SimConfig cfg;
        cfg.torus(1, 4, 1);
        Cluster cluster(cfg);
        PipelineRun run(cluster,
                        syntheticWorkload(8, 200'000, 1 * MiB),
                        PipelineOptions{.numPasses = 1,
                                        .microbatches = m});
        run.run();
        return run.bubbleRatio();
    };
    const double b2 = bubble(2);
    const double b8 = bubble(8);
    EXPECT_GT(b2, b8);
    EXPECT_GT(b8, 0.0);
}

TEST(Pipeline, ExplicitPipelineDim)
{
    SimConfig cfg;
    cfg.torus(1, 2, 4);
    Cluster cluster(cfg);
    PipelineRun run(cluster, syntheticWorkload(8, 1000, 64 * KiB),
                    PipelineOptions{.numPasses = 1, .microbatches = 2,
                                    .pipelineDim = 2});
    run.run();
    EXPECT_EQ(run.numStages(), 4);
}

TEST(Pipeline, MultiplePassesAccumulate)
{
    auto time = [](int passes) {
        SimConfig cfg;
        cfg.torus(1, 2, 1);
        Cluster cluster(cfg);
        PipelineRun run(cluster, syntheticWorkload(4, 10'000, 256 * KiB),
                        PipelineOptions{.numPasses = passes,
                                        .microbatches = 2,
                                        .pipelineDim = 1});
        return run.run();
    };
    const Tick one = time(1);
    const Tick three = time(3);
    EXPECT_GT(three, 2 * one);
    EXPECT_LT(three, 4 * one);
}

TEST(Pipeline, RejectsBadConfigurations)
{
    SimConfig cfg;
    cfg.torus(2, 1, 1);
    cfg.localDim = 2; // only a local dimension: nothing to pipeline on
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(4, 100, 64);
    EXPECT_THROW(PipelineRun(cluster, spec, PipelineOptions{}),
                 FatalError);
    SimConfig cfg2;
    cfg2.torus(1, 8, 1);
    Cluster cluster2(cfg2);
    WorkloadSpec tiny = syntheticWorkload(4, 100, 64); // 4 layers < 8
    EXPECT_THROW(PipelineRun(cluster2, tiny, PipelineOptions{}),
                 FatalError);
    EXPECT_THROW(PipelineRun(cluster2, syntheticWorkload(8, 1, 1),
                             PipelineOptions{.numPasses = 0}),
                 FatalError);
}

TEST(Pipeline, Deterministic)
{
    auto once = [] {
        SimConfig cfg;
        cfg.torus(2, 4, 1);
        Cluster cluster(cfg);
        PipelineRun run(cluster, syntheticWorkload(8, 5'000, 512 * KiB),
                        PipelineOptions{.numPasses = 2,
                                        .microbatches = 4});
        return run.run();
    };
    EXPECT_EQ(once(), once());
}

TEST(Pipeline, BudgetTripIsAnOutcomeNotAFatal)
{
    // As Trainer.BudgetTripIsAnOutcomeNotAFatal: nodes left waiting on
    // transfers or compute end the run BudgetExceeded, not fatal.
    SimConfig cfg;
    cfg.torus(2, 4, 1);
    cfg.maxEvents = 1000;
    Cluster cluster(cfg);
    PipelineRun run(cluster, syntheticWorkload(8, 5'000, 512 * KiB),
                    PipelineOptions{.numPasses = 2, .microbatches = 4});
    EXPECT_NO_THROW(run.run());
    EXPECT_EQ(cluster.outcome(), RunOutcome::BudgetExceeded);
    EXPECT_EQ(run.makespan(), 0u);
}

} // namespace
} // namespace astra

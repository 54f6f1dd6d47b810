#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/units.hh"
#include "workload/models.hh"
#include "workload/trainer.hh"

namespace astra
{
namespace
{

TEST(Trainer, DataParallelOnlyCommunicatesWeightGradients)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(4, 5000, 256 * KiB,
                                          ParallelismKind::Data);
    WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
    run.run();
    for (const LayerRunStats &s : run.layerStats()) {
        EXPECT_EQ(s.commFwd, 0u);
        EXPECT_EQ(s.commIg, 0u);
        EXPECT_GT(s.commWg, 0u);
    }
}

TEST(Trainer, ModelParallelBlocksOnActivations)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(4, 100, 256 * KiB,
                                          ParallelismKind::Model);
    WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
    run.run();
    Tick exposed = 0;
    for (const LayerRunStats &s : run.layerStats()) {
        EXPECT_GT(s.commFwd, 0u);
        // Layer 0 computes no input gradient.
        EXPECT_EQ(s.commWg, 0u);
        exposed += s.exposed;
    }
    // Tiny compute + blocking comm: nearly everything is exposed.
    EXPECT_GT(static_cast<double>(exposed),
              0.5 * static_cast<double>(run.makespan()));
}

TEST(Trainer, HugeComputeHidesDataParallelComm)
{
    // Fig. 18's left edge: with slow compute, collectives overlap
    // completely (exposed < 1%).
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(8, 2'000'000, 64 * KiB,
                                          ParallelismKind::Data);
    WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 2});
    run.run();
    EXPECT_LT(run.exposedRatio(), 0.01);
}

TEST(Trainer, ExposureGrowsWithComputePower)
{
    // Fig. 18's trend: scaling compute power up exposes communication.
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    WorkloadSpec spec = syntheticWorkload(8, 200'000, 2 * MiB,
                                          ParallelismKind::Data);
    double prev = -1;
    for (double scale : {0.5, 1.0, 4.0}) {
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec,
                        TrainerOptions{.numPasses = 2,
                                       .computeScale = scale});
        run.run();
        EXPECT_GT(run.exposedRatio(), prev) << "scale " << scale;
        prev = run.exposedRatio();
    }
}

TEST(Trainer, MorePassesMoreTime)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    WorkloadSpec spec = syntheticWorkload(3, 10'000, 256 * KiB,
                                          ParallelismKind::Data);
    Tick t1, t3;
    {
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
        t1 = run.run();
    }
    {
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 3});
        t3 = run.run();
    }
    EXPECT_GT(t3, 2 * t1);
    EXPECT_LT(t3, 4 * t1);
}

TEST(Trainer, FirstLayerWeightGradientIsExposed)
{
    // Sec. III-E: the first layer's weight-gradient communication has
    // no compute left to hide behind, so it shows up as exposed time
    // while later layers overlap.
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(6, 50'000, 4 * MiB,
                                          ParallelismKind::Data);
    WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
    run.run();
    const auto &stats = run.layerStats();
    EXPECT_GT(stats[0].exposed, 0u);
    // The first layer dominates the exposure of the deepest layers.
    EXPECT_GT(stats[0].exposed, stats[5].exposed);
}

TEST(Trainer, ComputeScaleShortensComputeTime)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    WorkloadSpec spec = syntheticWorkload(2, 100'000, 1 * KiB,
                                          ParallelismKind::Data);
    Tick slow, fast;
    {
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec,
                        TrainerOptions{.numPasses = 1,
                                       .computeScale = 1.0});
        slow = run.run();
    }
    {
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec,
                        TrainerOptions{.numPasses = 1,
                                       .computeScale = 2.0});
        fast = run.run();
    }
    EXPECT_LT(fast, slow);
}

TEST(Trainer, HybridUsesBothGroups)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(3, 10'000, 128 * KiB,
                                          ParallelismKind::Hybrid);
    WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
    run.run();
    StatGroup stats = cluster.aggregateStats();
    // wg all-reduce over local+horizontal, activations over vertical.
    EXPECT_GT(stats.counter("sent.bytes.vertical"), 0.0);
    EXPECT_GT(stats.counter("sent.bytes.local"), 0.0);
    EXPECT_GT(stats.counter("sent.bytes.horizontal"), 0.0);
}

TEST(Trainer, ExplicitDimOverridesWin)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(2, 1000, 64 * KiB,
                                          ParallelismKind::Hybrid);
    TrainerOptions opts;
    opts.numPasses = 1;
    opts.dataDims = {0};
    opts.modelDims = {1};
    WorkloadRun run(cluster, spec, opts);
    run.run();
    StatGroup stats = cluster.aggregateStats();
    EXPECT_EQ(stats.counter("sent.bytes.vertical"), 0.0);
    EXPECT_GT(stats.counter("sent.bytes.local"), 0.0);
    EXPECT_GT(stats.counter("sent.bytes.horizontal"), 0.0);
}

TEST(Trainer, AllNodesFinishTogetherOnSymmetricWorkloads)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(3, 10'000, 128 * KiB,
                                          ParallelismKind::Data);
    WorkloadRun run(cluster, spec, TrainerOptions{.numPasses = 1});
    run.run();
    const Tick t0 = run.trainer(0).totalTime();
    for (NodeId n = 1; n < cluster.numNodes(); ++n)
        EXPECT_EQ(run.trainer(n).totalTime(), t0);
}

TEST(Trainer, RejectsBadOptions)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(1, 100, 64);
    EXPECT_THROW(WorkloadRun(cluster, spec,
                             TrainerOptions{.numPasses = 0}),
                 FatalError);
    EXPECT_THROW(WorkloadRun(cluster, spec,
                             TrainerOptions{.numPasses = 1,
                                            .computeScale = 0.0}),
                 FatalError);
    WorkloadSpec empty;
    EXPECT_THROW(WorkloadRun(cluster, empty, TrainerOptions{}),
                 FatalError);
}

TEST(Trainer, BudgetTripIsAnOutcomeNotAFatal)
{
    // A tripped budget leaves every trainer suspended mid-schedule: the
    // run ends BudgetExceeded instead of reporting a deadlock, and
    // destroying it frees the suspended schedules.
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    cfg.maxEvents = 1000;
    Cluster cluster(cfg);
    WorkloadRun run(cluster, resnet50Workload(),
                    TrainerOptions{.numPasses = 1});
    EXPECT_NO_THROW(run.run());
    EXPECT_EQ(cluster.outcome(), RunOutcome::BudgetExceeded);
    EXPECT_FALSE(run.trainer(0).finished());
    EXPECT_EQ(run.makespan(), 0u);
}

TEST(Trainer, FatalInsideAResumedScheduleReachesTheCaller)
{
    // The schedule rethrows: a FatalError raised while an event resumes
    // it (here a weight-gradient collective over a dimension the
    // topology lacks, issued after the first compute event) leaves
    // run() as that exception.
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    WorkloadSpec spec = syntheticWorkload(2, 1000, 64 * KiB,
                                          ParallelismKind::Data);
    WorkloadRun run(cluster, spec,
                    TrainerOptions{.numPasses = 1, .dataDims = {7}});
    EXPECT_THROW(run.run(), FatalError);
    EXPECT_GT(cluster.eventQueue().now(), 0u);
}

} // namespace
} // namespace astra

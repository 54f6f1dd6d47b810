/**
 * @file
 * Fig. 13 — Transformer layer-wise raw communication time.
 *
 * Two training iterations of the hybrid-parallel Transformer on a
 * 2x2x2 torus (data-parallel across local and horizontal dimensions,
 * model-parallel across vertical), LIFO scheduling, local minibatch
 * 32.
 *
 * Expected shape: the six encoder layers show uniform communication
 * latency (they are structurally identical and the hybrid-parallel
 * dependencies serialize them); the embedding layer has none.
 */

#include "bench/support.hh"
#include "workload/models.hh"
#include "workload/trainer.hh"

using namespace astra;
using namespace astra::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, QuickMode::FullSize);
    banner("Fig. 13", "Transformer layer-wise comm time, 2x2x2 torus, "
                      "hybrid-parallel, 2 iterations");

    SimConfig cfg;
    cfg.torus(2, 2, 2);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    cfg.schedulingPolicy = SchedulingPolicy::LIFO;
    applyOverrides(args, cfg);

    TransformerConfig tc;
    tc.modelShards = cfg.verticalDim;
    tc.base.batch = 32;

    Cluster cluster(cfg);
    WorkloadRun run(cluster, transformerWorkload(tc),
                    TrainerOptions{.numPasses = 2});
    const Tick makespan = run.run();
    mergeReport(args, cluster);

    Table t;
    t.header({"layer", "name", "fwd_comm", "ig_comm", "wg_comm",
              "total_comm_cycles"});
    const auto &layers = run.spec().layers;
    const auto &stats = run.layerStats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
        t.row()
            .cell(std::uint64_t(i))
            .cell(layers[i].name)
            .cell(std::uint64_t(stats[i].commFwd))
            .cell(std::uint64_t(stats[i].commIg))
            .cell(std::uint64_t(stats[i].commWg))
            .cell(std::uint64_t(stats[i].commTotal()));
    }
    emitTable(args, "fig13_transformer.csv", t);
    std::printf("makespan: %s, exposed ratio: %.1f%%\n\n",
                formatTicks(makespan).c_str(),
                100 * run.exposedRatio());
    writeReport(args);
    return 0;
}

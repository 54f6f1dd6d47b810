/**
 * @file
 * Fig. 14 — ResNet-50 layer-wise raw communication time.
 *
 * Two training iterations, data-parallel on a 2x4x4 torus, LIFO
 * scheduling, local minibatch 32. Only weight gradients are
 * communicated (Table I), so the per-layer series tracks each layer's
 * parameter count.
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
    banner("Fig. 14", "ResNet-50 layer-wise comm time, 2x4x4 torus, "
                      "data-parallel, 2 iterations");

    SimConfig cfg;
    cfg.torus(2, 4, 4);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    cfg.schedulingPolicy = SchedulingPolicy::LIFO;
    applyOverrides(args, cfg);

    Cluster cluster(cfg);
    WorkloadRun run(cluster, resnet50Workload(),
                    TrainerOptions{.numPasses = 2});
    const Tick makespan = run.run();
    mergeReport(args, cluster);

    Table t;
    t.header({"layer", "name", "wg_bytes", "wg_comm_cycles"});
    const auto &layers = run.spec().layers;
    const auto &stats = run.layerStats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
        t.row()
            .cell(std::uint64_t(i))
            .cell(layers[i].name)
            .cell(formatBytes(layers[i].wgCommSize))
            .cell(std::uint64_t(stats[i].commWg));
    }
    emitTable(args, "fig14_resnet_comm.csv", t);
    std::printf("makespan: %s\n\n", formatTicks(makespan).c_str());
    writeReport(args);
    return 0;
}

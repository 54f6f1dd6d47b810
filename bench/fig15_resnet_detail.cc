/**
 * @file
 * Fig. 15 — ResNet-50 layer-wise end-to-end breakdown: compute time,
 * raw communication time, and *exposed* communication (the part not
 * overlapped with compute, which stalls the training loop).
 *
 * Same setup as Fig. 14 (2x4x4 torus, data-parallel, 2 iterations).
 * Expected shape: exposed communication concentrates in the earliest
 * layers — their weight-gradient all-reduces are issued last during
 * back-propagation and have no compute left to hide behind
 * (Sec. III-E).
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
    banner("Fig. 15", "ResNet-50 layer-wise compute / comm / exposed "
                      "comm, 2x4x4 torus");

    SimConfig cfg;
    cfg.torus(2, 4, 4);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    applyOverrides(args, cfg);

    Cluster cluster(cfg);
    WorkloadRun run(cluster, resnet50Workload(),
                    TrainerOptions{.numPasses = 2});
    const Tick makespan = run.run();
    mergeReport(args, cluster);

    Table t;
    t.header({"layer", "name", "compute", "comm", "exposed_comm"});
    const auto &layers = run.spec().layers;
    const auto &stats = run.layerStats();
    Tick exposed_total = 0;
    for (std::size_t i = 0; i < stats.size(); ++i) {
        exposed_total += stats[i].exposed;
        t.row()
            .cell(std::uint64_t(i))
            .cell(layers[i].name)
            .cell(std::uint64_t(stats[i].compute))
            .cell(std::uint64_t(stats[i].commTotal()))
            .cell(std::uint64_t(stats[i].exposed));
    }
    emitTable(args, "fig15_resnet_detail.csv", t);
    std::printf("makespan: %s, exposed: %s (%.1f%%)\n\n",
                formatTicks(makespan).c_str(),
                formatTicks(exposed_total).c_str(),
                100 * run.exposedRatio());
    writeReport(args);
    return 0;
}

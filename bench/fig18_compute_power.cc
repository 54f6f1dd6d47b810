/**
 * @file
 * Fig. 18 — ResNet-50 compute vs. exposed communication as the NPU's
 * compute power scales from 0.5x to 4x the baseline accelerator
 * (2x4x4 torus, data-parallel).
 *
 * Expected shape: at 0.5x, collectives hide completely behind compute
 * (<1% exposed); as compute speeds up the same communication is
 * increasingly exposed (the paper reports 63.9% at 4x) — the
 * diminishing-returns argument for compute-only scaling.
 */

#include "bench/support.hh"

#include "common/logging.hh"
#include "workload/models.hh"
#include "workload/trainer.hh"

using namespace astra;
using namespace astra::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, QuickMode::FullSize);
    banner("Fig. 18", "ResNet-50 exposed-comm ratio vs compute power");

    WorkloadSpec spec = resnet50Workload();
    const double scales[] = {0.5, 1.0, 2.0, 4.0};

    Table t;
    t.header({"compute_power", "makespan", "compute_ratio",
              "exposed_comm_ratio"});
    for (double scale : scales) {
        SimConfig cfg;
        cfg.torus(2, 4, 4);
        cfg.local.bandwidth = 8 * cfg.package.bandwidth;
        applyOverrides(args, cfg);
        Cluster cluster(cfg);
        WorkloadRun run(cluster, spec,
                        TrainerOptions{.numPasses = 2,
                                       .computeScale = scale});
        const Tick makespan = run.run();
        mergeReport(args, cluster);
        t.row()
            .cell(strprintf("%.1fx", scale))
            .cell(std::uint64_t(makespan))
            .cell(100 * run.computeRatio(), "%.1f%%")
            .cell(100 * run.exposedRatio(), "%.1f%%");
    }
    emitTable(args, "fig18_compute_power.csv", t);
    writeReport(args);
    return 0;
}

/**
 * @file
 * Fig. 16 — ResNet-50 layer-wise queue/network delay breakdown under
 * FIFO vs. LIFO collective scheduling.
 *
 * Same platform as Figs. 14/15. The paper's observation (Sec. V-F):
 * the two policies behave nearly identically, because the 8x local
 * bandwidth drains phase 1 before the next layer's chunks arrive,
 * which enforces in-order execution regardless of the ready-queue
 * discipline; most of the waiting accumulates in queue stage P2
 * (the first inter-package phase).
 */

#include "bench/support.hh"

#include "common/logging.hh"
#include "workload/models.hh"
#include "workload/trainer.hh"

using namespace astra;
using namespace astra::bench;

namespace
{

/** Run ResNet-50 under @p policy, print its breakdown, return the makespan. */
Tick
runPolicy(BenchArgs &args, SchedulingPolicy policy)
{
    SimConfig cfg;
    cfg.torus(2, 4, 4);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    cfg.algorithm = AlgorithmFlavor::Enhanced;
    cfg.schedulingPolicy = policy;
    applyOverrides(args, cfg);

    Cluster cluster(cfg);
    WorkloadRun run(cluster, resnet50Workload(),
                    TrainerOptions{.numPasses = 2});
    const Tick makespan = run.run();
    mergeReport(args, cluster);
    StatGroup stats = cluster.aggregateStats();

    Table t;
    t.header({"layer", "queue.P0", "queue.P1", "queue.P2", "queue.P3",
              "queue.P4", "net.P1", "net.P2", "net.P3", "net.P4"});
    const int layers = static_cast<int>(run.spec().layers.size());
    // Print a representative subset of layers (every 8th) plus the
    // ends, mirroring the paper's per-layer bars without 54 rows.
    for (int l = 0; l < layers; ++l) {
        if (l % 8 != 0 && l != layers - 1)
            continue;
        auto &row = t.row().cell(std::uint64_t(l));
        for (int p = 0; p <= 4; ++p) {
            row.cell(stats
                         .accumulator(
                             strprintf("layer%d.queue.P%d", l, p))
                         .mean(),
                     "%.0f");
        }
        for (int p = 1; p <= 4; ++p) {
            row.cell(stats
                         .accumulator(
                             strprintf("layer%d.network.P%d", l, p))
                         .mean(),
                     "%.0f");
        }
    }
    std::printf("policy: %s (makespan %s)\n", toString(policy),
                formatTicks(makespan).c_str());
    emitTable(args,
              strprintf("fig16_breakdown_%s.csv", toString(policy)), t);
    return makespan;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, QuickMode::FullSize);
    banner("Fig. 16", "ResNet-50 layer-wise delay breakdown, "
                      "FIFO vs LIFO");
    // The paper's claim in one table: both policies finish together.
    Table makespans;
    makespans.header({"policy", "makespan_cycles"});
    for (SchedulingPolicy policy :
         {SchedulingPolicy::LIFO, SchedulingPolicy::FIFO}) {
        const Tick makespan = runPolicy(args, policy);
        makespans.row().cell(toString(policy)).cell(std::uint64_t(makespan));
    }
    emitTable(args, "fig16_makespan.csv", makespans);
    writeReport(args);
    return 0;
}

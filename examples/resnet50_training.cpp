/**
 * @file
 * End-to-end distributed training of ResNet-50 (the paper's Sec. V-F
 * scenario): data-parallel on a 2x4x4 hierarchical torus, minibatch 32
 * per NPU, two iterations.
 *
 * Prints the per-layer compute / communication / exposed-communication
 * profile and the headline compute-vs-exposed split, then re-runs with
 * the enhanced collective algorithm to show the system-level effect of
 * an algorithm/topology co-design choice.
 *
 *   ./examples/resnet50_training [--key=value ...]
 */

#include <cstdio>
#include <string>

#include "common/csv.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "workload/models.hh"
#include "workload/trainer.hh"

using namespace astra;

namespace
{

Tick
trainOnce(SimConfig cfg, bool print_layers)
{
    Cluster cluster(cfg);
    WorkloadRun run(cluster, resnet50Workload(),
                    TrainerOptions{.numPasses = 2});
    const Tick makespan = run.run();

    if (print_layers) {
        Table t;
        t.header({"layer", "compute", "comm", "exposed"});
        const auto &layers = run.spec().layers;
        const auto &stats = run.layerStats();
        for (std::size_t i = 0; i < stats.size(); ++i) {
            // Print the interesting rows: stage boundaries + ends.
            if (i != 0 && i + 1 != stats.size() && i % 10 != 0)
                continue;
            t.row()
                .cell(layers[i].name)
                .cell(std::uint64_t(stats[i].compute))
                .cell(std::uint64_t(stats[i].commTotal()))
                .cell(std::uint64_t(stats[i].exposed));
        }
        t.print();
    }
    std::printf("algorithm=%s: makespan %s, compute %.1f%%, "
                "exposed comm %.1f%%\n",
                toString(cfg.algorithm), formatTicks(makespan).c_str(),
                100 * run.computeRatio(), 100 * run.exposedRatio());
    return makespan;
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg;
    cfg.torus(2, 4, 4);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            fatal("expected --key=value, got '%s'", arg.c_str());
        cfg.set(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
    cfg.validate();

    std::printf("ResNet-50, data-parallel, minibatch 32/NPU, "
                "2 iterations on %dx%dx%d\n\n",
                cfg.localDim, cfg.horizontalDim, cfg.verticalDim);

    cfg.algorithm = AlgorithmFlavor::Baseline;
    const Tick base = trainOnce(cfg, /*print_layers=*/true);

    cfg.algorithm = AlgorithmFlavor::Enhanced;
    const Tick enh = trainOnce(cfg, /*print_layers=*/false);

    std::printf("\nenhanced vs baseline end-to-end speedup: %.3fx\n",
                static_cast<double>(base) / static_cast<double>(enh));
    return 0;
}

/**
 * @file
 * Quickstart: simulate one all-reduce on a hierarchical torus.
 *
 * Builds the paper's 4x4x4 asymmetric platform (4 NAMs per package at
 * 8x local bandwidth, 16 packages), runs a 4 MB all-reduce with both
 * the baseline (3-phase) and enhanced (4-phase) collective algorithms,
 * and prints the communication times plus the per-phase plan.
 *
 *   ./examples/quickstart [--key=value ...]
 */

#include <cstdio>
#include <string>

#include "collective/phase_plan.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "core/cluster.hh"

using namespace astra;

int
main(int argc, char **argv)
{
    // 1. Describe the platform (Table III parameters, Table IV
    //    defaults). Any parameter can be overridden on the command
    //    line as --key=value.
    SimConfig cfg;
    cfg.torus(4, 4, 4); // local x horizontal x vertical
    cfg.local.bandwidth = 8 * cfg.package.bandwidth; // MCM packaging
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            fatal("expected --key=value, got '%s'", arg.c_str());
        cfg.set(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
    cfg.validate();

    std::printf("platform:\n%s\n", cfg.toString().c_str());

    const Bytes payload = 4 * MiB;

    for (AlgorithmFlavor flavor :
         {AlgorithmFlavor::Baseline, AlgorithmFlavor::Enhanced}) {
        SimConfig run_cfg = cfg;
        run_cfg.algorithm = flavor;

        // 2. Build the simulated cluster: event queue + network
        //    backend + one system layer (Sys) per NPU.
        Cluster cluster(run_cfg);

        // Show the multi-phase plan this flavour produces.
        std::vector<int> dims;
        for (int d = 0; d < cluster.topology().numDims(); ++d)
            dims.push_back(d);
        PhasePlan plan = buildPhasePlan(cluster.topology(), dims,
                                        CollectiveKind::AllReduce,
                                        flavor);
        std::printf("%s plan: %s\n", toString(flavor),
                    toString(cluster.topology(), plan).c_str());

        // 3. Issue the same collective on every node and run events
        //    to completion.
        const Tick t =
            cluster.runCollective(CollectiveKind::AllReduce, payload);
        std::printf("%s %s all-reduce: %s\n\n",
                    formatBytes(payload).c_str(), toString(flavor),
                    formatTicks(t).c_str());
    }
    return 0;
}

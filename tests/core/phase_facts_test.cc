// The facts a phase algorithm reads (AlgContext::phase()) are fixed by
// Stream::enterPhase and must equal what the topology, the plan and
// the fault layer say about that phase: checked on an enhanced 4-phase
// all-reduce over an asymmetric torus (dimensions of different sizes,
// the default 8x faster local links), with a straggler node (stretched
// endpoint delay) and a link that is down for the whole run
// (re-planned ring channels).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "collective/phase_plan.hh"
#include "core/cluster.hh"
#include "fault/fault.hh"
#include "net/fabric.hh"

namespace astra
{
namespace
{

constexpr NodeId kStraggler = 5;
constexpr double kSlowdown = 2.5;

SimConfig
asymmetricEnhanced()
{
    SimConfig cfg;
    cfg.torus(2, 4, 3);
    cfg.algorithm = AlgorithmFlavor::Enhanced;
    cfg.endpointDelay = 7;
    return cfg;
}

/** Link leaving node 0 on channel 0 of the first bidirectional ring. */
int
bidirectionalRingLink(const SimConfig &cfg, int *dim_out)
{
    Cluster probe(cfg);
    const Topology &topo = probe.topology();
    const Fabric &fabric =
        dynamic_cast<FabricNetwork &>(probe.network()).fabric();
    for (int d = 0; d < topo.numDims(); ++d) {
        if (fabric.ringChannels(d) > 1 && topo.channelDirection(d, 1) < 0) {
            *dim_out = d;
            return int(fabric.ringLinks(d, 0)[0]);
        }
    }
    ADD_FAILURE() << "no bidirectional ring";
    return -1;
}

TEST(PhaseFacts, FixedAtPhaseEntryFromTopologyPlanAndFaults)
{
    SimConfig cfg = asymmetricEnhanced();
    int down_dim = -1;
    const int down = bidirectionalRingLink(cfg, &down_dim);
    ASSERT_GE(down, 0);
    cfg.faultRules = {"down link=" + std::to_string(down) +
                          " from=0 to=end",
                      "straggle node=" + std::to_string(kStraggler) +
                          " factor=2.5"};
    Cluster cluster(cfg);
    const Topology &topo = cluster.topology();
    const FaultManager *faults = cluster.faults();
    ASSERT_NE(faults, nullptr);

    const std::vector<int> dims = {0, 1, 2};
    const Bytes chunk = 96 * 1024;
    int replanned = 0;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        Sys &sys = cluster.node(n);
        auto handle = std::make_shared<CollectiveHandle>(
            buildPhasePlan(topo, dims, CollectiveKind::AllReduce,
                           AlgorithmFlavor::Enhanced),
            GroupInfo(topo, n, dims));
        handle->kind = CollectiveKind::AllReduce;
        const PhasePlan &plan = handle->plan;
        ASSERT_EQ(plan.size(), 4u);
        const Tick delay =
            n == kStraggler
                ? Tick(std::ceil(double(cfg.endpointDelay) * kSlowdown))
                : cfg.endpointDelay;

        for (StreamId id = 1; id <= 8; ++id) {
            Stream s(sys, id, chunk, handle);
            // The set's plan and group are shared, not copied.
            EXPECT_EQ(&s.plan(), &handle->plan);
            EXPECT_EQ(&s.group(), &handle->group);
            for (int p = 0; p < int(plan.size()); ++p) {
                s.enterPhase(p, Tick(p));
                const PhaseFacts &f = s.phase();
                const int dim = plan[std::size_t(p)].dim;
                const DimInfo &info = topo.dim(dim);
                const int channel =
                    faults->pickChannel(dim, info.channels, id);
                EXPECT_EQ(f.dim, dim);
                EXPECT_EQ(f.groupSize, info.size);
                EXPECT_EQ(f.rank, topo.rankInGroup(dim, n));
                EXPECT_EQ(f.channel, channel);
                EXPECT_EQ(f.direction,
                          info.pattern == DimPattern::Ring
                              ? topo.channelDirection(dim, channel)
                              : +1);
                EXPECT_EQ(f.numChannels, info.channels);
                EXPECT_EQ(f.entryBytes,
                          phaseEntryBytes(topo, plan, p, chunk));
                EXPECT_EQ(f.endpointDelay, delay);
                EXPECT_EQ(s.enqueuedAt[std::size_t(p)], Tick(p));
                if (channel != int(id % StreamId(info.channels)))
                    ++replanned;
                if (dim == down_dim) {
                    EXPECT_NE(f.channel, 0) << "stream " << id;
                }
            }
        }
    }
    // The down link moved some streams off their historical channel.
    EXPECT_GT(replanned, 0);
    EXPECT_EQ(cluster.node(kStraggler).endpointDelay(),
              Tick(std::ceil(double(cfg.endpointDelay) * kSlowdown)));
    EXPECT_EQ(cluster.node(0).endpointDelay(), cfg.endpointDelay);
}

} // namespace
} // namespace astra

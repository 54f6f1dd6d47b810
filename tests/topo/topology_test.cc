#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "common/logging.hh"
#include "topo/topology.hh"

namespace astra
{
namespace
{

SimConfig
torusCfg(int m, int n, int k)
{
    SimConfig cfg;
    cfg.torus(m, n, k);
    return cfg;
}

TEST(Topology, TorusDimensionLayout)
{
    Topology t(torusCfg(2, 3, 4));
    EXPECT_EQ(t.kind(), TopologyKind::Torus3D);
    EXPECT_EQ(t.numNodes(), 24);
    ASSERT_EQ(t.numDims(), 3);
    EXPECT_EQ(t.dim(0).name, "local");
    EXPECT_EQ(t.dim(1).name, "horizontal");
    EXPECT_EQ(t.dim(2).name, "vertical");
    EXPECT_EQ(t.dim(0).size, 2);
    EXPECT_EQ(t.dim(1).size, 3);
    EXPECT_EQ(t.dim(2).size, 4);
    EXPECT_EQ(t.dim(0).linkClass, LinkClass::Local);
    EXPECT_EQ(t.dim(1).linkClass, LinkClass::Package);
    EXPECT_EQ(t.dim(0).pattern, DimPattern::Ring);
    // Local rings are unidirectional; package rings split into two
    // unidirectional channels each (2 bidirectional -> 4 channels).
    EXPECT_EQ(t.dim(0).channels, 2);
    EXPECT_EQ(t.dim(1).channels, 4);
    EXPECT_EQ(t.dim(2).channels, 4);
}

TEST(Topology, AllToAllDimensionLayout)
{
    SimConfig cfg;
    cfg.allToAll(2, 8, 7);
    Topology t(cfg);
    EXPECT_EQ(t.kind(), TopologyKind::AllToAll);
    EXPECT_EQ(t.numNodes(), 16);
    ASSERT_EQ(t.numDims(), 2);
    EXPECT_EQ(t.dim(1).name, "alltoall");
    EXPECT_EQ(t.dim(1).pattern, DimPattern::Switch);
    EXPECT_EQ(t.dim(1).channels, 7);
    EXPECT_EQ(t.numSwitches(1), 7);
}

class CoordRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CoordRoundTrip, EveryNodeRoundTrips)
{
    auto [m, n, k] = GetParam();
    Topology t(torusCfg(m, n, k));
    std::set<NodeId> seen;
    for (NodeId node = 0; node < t.numNodes(); ++node) {
        Coord c = t.coordOf(node);
        EXPECT_GE(c[0], 0);
        EXPECT_LT(c[0], m);
        EXPECT_LT(c[1], n);
        EXPECT_LT(c[2], k);
        EXPECT_EQ(t.nodeAt(c), node);
        seen.insert(node);
    }
    EXPECT_EQ(seen.size(), std::size_t(m * n * k));
}

INSTANTIATE_TEST_SUITE_P(Shapes, CoordRoundTrip,
                         ::testing::Values(std::make_tuple(2, 2, 2),
                                           std::make_tuple(1, 8, 1),
                                           std::make_tuple(4, 4, 4),
                                           std::make_tuple(2, 8, 8),
                                           std::make_tuple(3, 5, 7)));

TEST(Topology, GroupsVaryExactlyOneDimension)
{
    Topology t(torusCfg(2, 3, 4));
    for (NodeId node = 0; node < t.numNodes(); ++node) {
        for (int d = 0; d < t.numDims(); ++d) {
            auto g = t.group(d, node);
            ASSERT_EQ(static_cast<int>(g.size()), t.dim(d).size);
            // Element i sits at coordinate i; the node is a member.
            bool found = false;
            for (int i = 0; i < static_cast<int>(g.size()); ++i) {
                Coord c = t.coordOf(g[std::size_t(i)]);
                EXPECT_EQ(c[d], i);
                // Other coordinates match the member's.
                Coord cn = t.coordOf(node);
                for (int o = 0; o < 3; ++o) {
                    if (o != d) {
                        EXPECT_EQ(c[o], cn[o]);
                    }
                }
                if (g[std::size_t(i)] == node)
                    found = true;
            }
            EXPECT_TRUE(found);
            EXPECT_EQ(g[std::size_t(t.rankInGroup(d, node))], node);
        }
    }
}

TEST(Topology, LocalRingsAreUnidirectional)
{
    Topology t(torusCfg(4, 2, 2));
    for (int ch = 0; ch < t.dim(0).channels; ++ch)
        EXPECT_EQ(t.channelDirection(0, ch), +1);
}

TEST(Topology, PackageChannelsAlternateDirection)
{
    Topology t(torusCfg(2, 4, 4));
    EXPECT_EQ(t.channelDirection(1, 0), +1);
    EXPECT_EQ(t.channelDirection(1, 1), -1);
    EXPECT_EQ(t.channelDirection(1, 2), +1);
    EXPECT_EQ(t.channelDirection(1, 3), -1);
}

TEST(Topology, RingNextWrapsInBothDirections)
{
    Topology t(torusCfg(1, 4, 1));
    // Forward channel 0: 0 -> 1 -> 2 -> 3 -> 0.
    NodeId n = 0;
    for (int i = 0; i < 4; ++i)
        n = t.ringNext(1, 0, n);
    EXPECT_EQ(n, 0);
    EXPECT_EQ(t.ringNext(1, 0, 3), 0);
    // Backward channel 1: 0 -> 3.
    EXPECT_EQ(t.ringNext(1, 1, 0), 3);
}

TEST(Topology, RingDistanceFollowsDirection)
{
    Topology t(torusCfg(1, 8, 1));
    // Forward: distance from rank 2 to rank 5 is 3.
    EXPECT_EQ(t.ringDistance(1, 0, 2, 5), 3);
    // Backward channel: distance from 2 to 5 going down is 5.
    EXPECT_EQ(t.ringDistance(1, 1, 2, 5), 5);
    EXPECT_EQ(t.ringDistance(1, 0, 5, 5), 0);
}

TEST(Topology, WalkingAnyChannelVisitsWholeRing)
{
    Topology t(torusCfg(2, 4, 3));
    for (int d = 0; d < 3; ++d) {
        for (int ch = 0; ch < t.dim(d).channels; ++ch) {
            NodeId start = 7; // arbitrary
            std::set<NodeId> visited{start};
            NodeId cur = start;
            for (int i = 1; i < t.dim(d).size; ++i) {
                cur = t.ringNext(d, ch, cur);
                visited.insert(cur);
            }
            EXPECT_EQ(t.ringNext(d, ch, cur), start);
            EXPECT_EQ(visited.size(), std::size_t(t.dim(d).size));
        }
    }
}

TEST(Topology, PhaseOrderIsLocalVerticalHorizontal)
{
    Topology t(torusCfg(2, 3, 4));
    EXPECT_LT(t.phaseOrderKey(Topology::kDimLocal),
              t.phaseOrderKey(Topology::kDimVertical));
    EXPECT_LT(t.phaseOrderKey(Topology::kDimVertical),
              t.phaseOrderKey(Topology::kDimHorizontal));
}

TEST(Topology, ErrorsOnBadInput)
{
    Topology t(torusCfg(2, 2, 2));
    EXPECT_THROW(t.coordOf(-1), FatalError);
    EXPECT_THROW(t.coordOf(8), FatalError);
    EXPECT_THROW(t.dim(5), std::out_of_range);
    EXPECT_THROW(t.channelDirection(0, 99), FatalError);
    Coord bad;
    bad[0] = 5;
    EXPECT_THROW(t.nodeAt(bad), FatalError);
}

TEST(Topology, PeerIsNodeAtOfTheEditedCoordinate)
{
    SimConfig a2a;
    a2a.allToAll(2, 4, 2);
    for (const SimConfig &cfg : {torusCfg(2, 4, 3), a2a}) {
        Topology t(cfg);
        for (NodeId node = 0; node < t.numNodes(); ++node) {
            for (int d = 0; d < t.numDims(); ++d) {
                for (int coord = 0; coord < t.dim(d).size; ++coord) {
                    Coord c = t.coordOf(node);
                    c[d] = coord;
                    EXPECT_EQ(t.peer(node, d, coord), t.nodeAt(c))
                        << t.toString() << " node " << node << " dim "
                        << d << " coord " << coord;
                }
            }
        }
        // An out-of-range coordinate panics exactly as nodeAt does.
        for (int d = 0; d < t.numDims(); ++d) {
            for (int coord : {-1, t.dim(d).size}) {
                Coord c = t.coordOf(1);
                c[d] = coord;
                std::string want, got;
                try {
                    t.nodeAt(c);
                } catch (const FatalError &e) {
                    want = e.what();
                }
                try {
                    t.peer(1, d, coord);
                } catch (const FatalError &e) {
                    got = e.what();
                }
                EXPECT_FALSE(want.empty());
                EXPECT_EQ(got, want);
            }
        }
    }
}

TEST(Topology, SwitchDimensionRejectsRingOps)
{
    SimConfig cfg;
    cfg.allToAll(2, 4, 2);
    Topology t(cfg);
    EXPECT_THROW(t.channelDirection(1, 0), FatalError);
}

TEST(Topology, ToStringDescribesShape)
{
    Topology t(torusCfg(4, 4, 4));
    EXPECT_EQ(t.toString(), "Torus3D 4x4x4 (64 NPUs)");
    SimConfig cfg;
    cfg.allToAll(2, 3, 2);
    Topology a(cfg);
    EXPECT_EQ(a.toString(), "AllToAll 2x3 (6 NPUs, 2 switches)");
}

} // namespace
} // namespace astra

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.hh"
#include "net/fabric.hh"

namespace astra
{
namespace
{

TEST(Fabric, TorusLinkCount)
{
    SimConfig cfg;
    cfg.torus(2, 3, 4);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    // Per ring channel: one link per node. Local: 2 channels, package
    // dims: 4 channels each.
    const int nodes = 24;
    EXPECT_EQ(f.numLinks(), nodes * (2 + 4 + 4));
}

TEST(Fabric, DegenerateDimensionsHaveNoLinks)
{
    SimConfig cfg;
    cfg.torus(1, 8, 1);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    EXPECT_EQ(f.numLinks(), 8 * 4); // only the horizontal dimension
}

TEST(Fabric, AllToAllLinkCount)
{
    SimConfig cfg;
    cfg.allToAll(2, 8, 7);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    // Local rings: 16 nodes x 2 channels; switches: 7 x 16 x (up+down).
    EXPECT_EQ(f.numLinks(), 16 * 2 + 7 * 16 * 2);
}

TEST(Fabric, RingRowsHoldTheLinkLeavingEachNode)
{
    SimConfig torus;
    torus.torus(2, 3, 4);
    SimConfig a2a;
    a2a.allToAll(2, 8, 7);
    for (const SimConfig &cfg : {torus, a2a}) {
        Topology topo(cfg);
        Fabric f(topo, cfg);
        for (int d = 0; d < topo.numDims(); ++d) {
            const DimInfo &info = topo.dim(d);
            const bool ring =
                info.pattern == DimPattern::Ring && info.size >= 2;
            ASSERT_EQ(f.ringChannels(d), ring ? info.channels : 0);
            for (int ch = 0; ch < f.ringChannels(d); ++ch) {
                const auto row = f.ringLinks(d, ch);
                ASSERT_EQ(row.size(), std::size_t(topo.numNodes()));
                for (NodeId n = 0; n < topo.numNodes(); ++n) {
                    const LinkDesc &l = f.link(row[std::size_t(n)]);
                    EXPECT_EQ(l.from, n);
                    EXPECT_EQ(l.to, topo.ringNext(d, ch, n));
                    EXPECT_EQ(l.dim, d);
                }
            }
        }
        // Links are numbered dimension by dimension.
        for (LinkId l = 1; l < f.numLinks(); ++l)
            EXPECT_LE(f.link(l - 1).dim, f.link(l).dim);
    }
}

TEST(Fabric, MaxRouteLengthIsTheLongestRoute)
{
    // The analytical backend sizes each transfer's route slot with
    // maxRouteLength(): no route may exceed it, and it should be tight.
    SimConfig torus;
    torus.torus(2, 3, 4);
    SimConfig a2a;
    a2a.allToAll(2, 8, 7);
    for (const SimConfig &cfg : {torus, a2a}) {
        Topology topo(cfg);
        Fabric f(topo, cfg, /*one_to_one=*/false);
        std::size_t longest = 0;
        for (NodeId src = 0; src < topo.numNodes(); ++src) {
            for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
                for (int seed = 0; seed < 8; ++seed) {
                    longest = std::max(
                        longest, f.routeMapped(src, dst, seed).size());
                }
            }
        }
        EXPECT_EQ(longest, f.maxRouteLength());
    }
}

TEST(Fabric, RingRouteWalksTheChannel)
{
    SimConfig cfg;
    cfg.torus(1, 8, 1);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    // Forward channel: 2 -> 5 is 3 hops.
    auto path = f.route(2, 5, RouteHint{1, 0});
    ASSERT_EQ(path.size(), 3u);
    EXPECT_EQ(f.link(path[0]).from, 2);
    EXPECT_EQ(f.link(path[0]).to, 3);
    EXPECT_EQ(f.link(path[2]).to, 5);
    EXPECT_EQ(f.hopCount(2, 5, RouteHint{1, 0}), 3);
    // Backward channel: 2 -> 5 is 5 hops the other way.
    auto back = f.route(2, 5, RouteHint{1, 1});
    EXPECT_EQ(back.size(), 5u);
    EXPECT_EQ(f.hopCount(2, 5, RouteHint{1, 1}), 5);
}

TEST(Fabric, SwitchRouteIsTwoHops)
{
    SimConfig cfg;
    cfg.allToAll(1, 4, 3);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    auto path = f.route(0, 3, RouteHint{1, 2});
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(f.link(path[0]).from, 0);
    EXPECT_EQ(f.link(path[0]).to, 4 + 2); // switch port
    EXPECT_EQ(f.link(path[1]).from, 4 + 2);
    EXPECT_EQ(f.link(path[1]).to, 3);
    EXPECT_EQ(f.hopCount(0, 3, RouteHint{1, 2}), 2);
}

TEST(Fabric, SelfRouteIsEmpty)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    EXPECT_TRUE(f.route(3, 3, RouteHint{0, 0}).empty());
    EXPECT_EQ(f.hopCount(3, 3, RouteHint{0, 0}), 0);
}

TEST(Fabric, RouteLinkClassMatchesDimension)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    auto local = f.route(0, 1, RouteHint{0, 0});
    ASSERT_FALSE(local.empty());
    EXPECT_EQ(f.link(local[0]).cls, LinkClass::Local);
    auto pkg = f.route(0, 2, RouteHint{1, 0});
    ASSERT_FALSE(pkg.empty());
    EXPECT_EQ(f.link(pkg[0]).cls, LinkClass::Package);
    EXPECT_DOUBLE_EQ(f.linkParams(local[0]).bandwidth, 200.0);
    EXPECT_DOUBLE_EQ(f.linkParams(pkg[0]).bandwidth, 25.0);
}

TEST(Fabric, RouteRejectsCrossDimensionPairs)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    // Nodes 0 (0,0,0) and 3 (1,1,0) differ in two dimensions.
    EXPECT_THROW(f.route(0, 3, RouteHint{0, 0}), FatalError);
    EXPECT_THROW(f.route(0, 3, RouteHint{1, 0}), FatalError);
}

TEST(Fabric, RouteRejectsBadHints)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Topology topo(cfg);
    Fabric f(topo, cfg);
    EXPECT_THROW(f.route(0, 1, RouteHint{7, 0}), FatalError);
    EXPECT_THROW(f.route(0, 1, RouteHint{0, 99}), FatalError);
}

} // namespace
} // namespace astra

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "core/group_info.hh"

namespace astra
{
namespace
{

Topology
torus(int m, int n, int k)
{
    SimConfig cfg;
    cfg.torus(m, n, k);
    return Topology(cfg);
}

TEST(GroupInfo, FullMachineRanksAreDenseAndUnique)
{
    Topology t = torus(2, 3, 4);
    std::set<int> ranks;
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        GroupInfo g(t, n, {0, 1, 2});
        EXPECT_EQ(g.size(), 24);
        EXPECT_GE(g.myRank(), 0);
        EXPECT_LT(g.myRank(), 24);
        ranks.insert(g.myRank());
    }
    EXPECT_EQ(ranks.size(), 24u);
}

TEST(GroupInfo, RadixOrderFollowsPhaseOrder)
{
    // local is least significant, then vertical, then horizontal.
    Topology t = torus(2, 3, 4);
    ASSERT_EQ(t.phaseOrderKey(0), 0);
    GroupInfo g0(t, 0, {0, 1, 2});
    // Node with local coordinate 1, others 0: rank 1.
    Coord c;
    c[0] = 1;
    EXPECT_EQ(GroupInfo(t, t.nodeAt(c), {0, 1, 2}).myRank(), 1);
    // Node with vertical coordinate 1: rank == localSize (2).
    Coord cv;
    cv[2] = 1;
    EXPECT_EQ(GroupInfo(t, t.nodeAt(cv), {0, 1, 2}).myRank(), 2);
    // Node with horizontal coordinate 1: rank == local*vertical (8).
    Coord ch;
    ch[1] = 1;
    EXPECT_EQ(GroupInfo(t, t.nodeAt(ch), {0, 1, 2}).myRank(), 8);
}

TEST(GroupInfo, CoordOfInvertsRanking)
{
    Topology t = torus(2, 3, 4);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        GroupInfo g(t, n, {0, 1, 2});
        Coord c = t.coordOf(n);
        EXPECT_EQ(g.coordOf(g.myRank(), 0), c[0]);
        EXPECT_EQ(g.coordOf(g.myRank(), 1), c[1]);
        EXPECT_EQ(g.coordOf(g.myRank(), 2), c[2]);
    }
}

TEST(GroupInfo, SubgroupSizesAndRanks)
{
    Topology t = torus(2, 3, 4);
    Coord c;
    c[0] = 1;
    c[1] = 2;
    c[2] = 3;
    NodeId n = t.nodeAt(c);
    GroupInfo g(t, n, {1, 2}); // package dims only
    EXPECT_EQ(g.size(), 12);
    // vertical before horizontal in the radix: rank = v + 4*h.
    EXPECT_EQ(g.myRank(), 3 + 4 * 2);
    EXPECT_EQ(g.coordOf(g.myRank(), 2), 3);
    EXPECT_EQ(g.coordOf(g.myRank(), 1), 2);
}

TEST(GroupInfo, RankWithReplacesOneCoordinate)
{
    Topology t = torus(2, 3, 4);
    // The rank of node 0's peer with one coordinate replaced.
    auto rankWith = [&](int dim, int coord) {
        return GroupInfo(t, t.peer(0, dim, coord), {0, 1, 2}).myRank();
    };
    EXPECT_EQ(rankWith(0, 0), 0);
    EXPECT_EQ(rankWith(0, 1), 1);
    EXPECT_EQ(rankWith(2, 3), 2 * 3);       // vertical stride = 2
    EXPECT_EQ(rankWith(1, 2), 2 * 4 * 2);   // horizontal stride = 8
}

TEST(GroupInfo, SizeOneDimensionsContributeRadixOne)
{
    Topology t = torus(1, 8, 1);
    GroupInfo g(t, 5, {0, 1, 2});
    EXPECT_EQ(g.size(), 8);
    EXPECT_EQ(g.myRank(), 5);
}

TEST(GroupInfo, Errors)
{
    Topology t = torus(2, 2, 2);
    GroupInfo g(t, 0, {0, 1});
    EXPECT_THROW(g.coordOf(99, 0), FatalError);
    EXPECT_THROW(g.coordOf(0, 2), FatalError);   // dim not in group
    EXPECT_THROW(GroupInfo(t, 0, {0, 0}), FatalError);
    EXPECT_THROW(GroupInfo(t, 0, {9}), FatalError);
}

} // namespace
} // namespace astra

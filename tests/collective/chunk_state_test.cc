#include <gtest/gtest.h>

#include "collective/chunk_state.hh"
#include "common/logging.hh"

namespace astra
{
namespace
{

TEST(ElemRange, SubRangeSplitsEvenly)
{
    ElemRange r{8, 24};
    EXPECT_EQ(r.length(), 16);
    EXPECT_EQ(r.subRange(4, 0), (ElemRange{8, 12}));
    EXPECT_EQ(r.subRange(4, 3), (ElemRange{20, 24}));
    EXPECT_TRUE(r.contains(8));
    EXPECT_FALSE(r.contains(24));
}

TEST(ElemRange, SubRangeRejectsBadSplits)
{
    ElemRange r{0, 10};
    EXPECT_THROW(r.subRange(3, 0), FatalError);  // 10 % 3 != 0
    EXPECT_THROW(r.subRange(5, 5), FatalError);  // index out of range
    EXPECT_THROW(r.subRange(5, -1), FatalError);
    EXPECT_THROW(r.subRange(0, 0), FatalError);
}

TEST(ChunkState, AllReduceStartsWithOwnPartialEverywhere)
{
    ChunkState s(4, 2, 4096, CollectiveKind::AllReduce);
    EXPECT_EQ(s.groupSize(), 4);
    EXPECT_EQ(s.myGlobalRank(), 2);
    EXPECT_EQ(s.current(), (ElemRange{0, 4}));
    for (int e = 0; e < 4; ++e) {
        EXPECT_TRUE(s.valid(e));
        EXPECT_EQ(s.contribs(e).count(), 1u);
        EXPECT_TRUE(s.contribs(e).test(2));
        EXPECT_FALSE(s.fullyReduced(e));
    }
    EXPECT_FALSE(s.allReduced());
}

TEST(ChunkState, AllGatherStartsWithOwnElementOnly)
{
    ChunkState s(4, 1, 4096, CollectiveKind::AllGather);
    EXPECT_EQ(s.current(), (ElemRange{1, 2}));
    EXPECT_TRUE(s.valid(1));
    EXPECT_FALSE(s.valid(0));
    EXPECT_FALSE(s.allValid());
}

TEST(ChunkState, AllToAllStartsWithOutgoingBlocks)
{
    ChunkState s(3, 0, 4096, CollectiveKind::AllToAll);
    ASSERT_EQ(s.blocks().size(), 3u);
    for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(s.blocks()[std::size_t(d)].first, 0);
        EXPECT_EQ(s.blocks()[std::size_t(d)].second, d);
    }
    EXPECT_FALSE(s.allToAllComplete());
}

TEST(ChunkState, BytesForScalesWithElements)
{
    ChunkState s(4, 0, 4096, CollectiveKind::AllReduce);
    EXPECT_DOUBLE_EQ(s.bytesPerElem(), 1024.0);
    EXPECT_EQ(s.bytesFor(1), 1024u);
    EXPECT_EQ(s.bytesFor(4), 4096u);
    EXPECT_EQ(s.bytesFor(0), 0u);
    // Non-divisible totals round up.
    ChunkState odd(3, 0, 100, CollectiveKind::AllReduce);
    EXPECT_EQ(odd.bytesFor(1), 34u);
}

TEST(ChunkState, ReducePayloadMergesDisjointContribs)
{
    ChunkState a(2, 0, 64, CollectiveKind::AllReduce);
    ChunkState b(2, 1, 64, CollectiveKind::AllReduce);
    ChunkPayload p = b.makeRangePayload(ElemRange{0, 2}, true);
    a.applyRangePayload(p);
    EXPECT_TRUE(a.allReduced());
}

TEST(ChunkState, DuplicateReductionPanics)
{
    ChunkState a(2, 0, 64, CollectiveKind::AllReduce);
    ChunkPayload p = a.makeRangePayload(ElemRange{0, 2}, true);
    // Reducing our own partial back into ourselves double-counts.
    EXPECT_THROW(a.applyRangePayload(p), FatalError);
}

TEST(ChunkState, InstallPayloadSetsValidity)
{
    ChunkState a(4, 0, 64, CollectiveKind::AllGather);
    ChunkState b(4, 3, 64, CollectiveKind::AllGather);
    ChunkPayload p = b.makeRangePayload(ElemRange{3, 4}, false);
    a.applyRangePayload(p);
    EXPECT_TRUE(a.valid(3));
    EXPECT_TRUE(a.contribs(3).test(3));
}

TEST(ChunkState, SendingInvalidElementPanics)
{
    ChunkState a(4, 0, 64, CollectiveKind::AllGather);
    EXPECT_THROW(a.makeRangePayload(ElemRange{1, 2}, false), FatalError);
}

TEST(ChunkState, RestrictValidToNarrowsOwnership)
{
    ChunkState a(4, 0, 64, CollectiveKind::AllReduce);
    a.restrictValidTo(ElemRange{1, 2});
    EXPECT_EQ(a.current(), (ElemRange{1, 2}));
    EXPECT_TRUE(a.valid(1));
    EXPECT_FALSE(a.valid(0));
    EXPECT_FALSE(a.valid(2));
}

TEST(ChunkState, TakeBlocksIfPartitions)
{
    ChunkState a(4, 1, 64, CollectiveKind::AllToAll);
    auto taken = a.takeBlocksByPart(2, /*keep=*/1,
                                    [](int dst) { return dst % 2; });
    ASSERT_EQ(taken.size(), 2u);
    EXPECT_EQ(taken[0].size(), 2u);
    EXPECT_TRUE(taken[1].empty());
    EXPECT_EQ(a.blocks().size(), 2u);
    for (const auto &[src, dst] : a.blocks())
        EXPECT_EQ(dst % 2, 1);
    // Both sides keep the held order.
    const std::vector<std::pair<int, int>> sent = {{1, 0}, {1, 2}};
    const std::vector<std::pair<int, int>> held = {{1, 1}, {1, 3}};
    EXPECT_EQ(taken[0], sent);
    EXPECT_EQ(a.blocks(), held);
    // A part outside [0, parts) is a routing bug.
    EXPECT_THROW(a.takeBlocksByPart(1, 0, [](int dst) { return dst; }),
                 FatalError);
}

TEST(ChunkState, AllToAllCompletionRequiresExactBlocks)
{
    ChunkState a(2, 0, 64, CollectiveKind::AllToAll);
    // Drop the outgoing block for rank 1, keep (0,0).
    a.takeBlocksByPart(2, /*keep=*/0, [](int dst) { return dst; });
    EXPECT_FALSE(a.allToAllComplete());
    a.addBlocks({{1, 0}});
    EXPECT_TRUE(a.allToAllComplete());
    // A duplicate source breaks completeness.
    a.addBlocks({{1, 0}});
    EXPECT_FALSE(a.allToAllComplete());
}

TEST(ChunkState, BadPayloadRangePanics)
{
    ChunkState a(4, 0, 64, CollectiveKind::AllReduce);
    ChunkPayload p;
    p.range = ElemRange{2, 9};
    p.reduce = false;
    p.contribs.assign(7, BitVec(4));
    EXPECT_THROW(a.applyRangePayload(p), FatalError);
    ChunkPayload q;
    q.range = ElemRange{0, 2};
    q.contribs.assign(1, BitVec(4)); // size mismatch
    EXPECT_THROW(a.applyRangePayload(q), FatalError);
}

TEST(ChunkState, ConstructorValidatesRank)
{
    EXPECT_THROW(ChunkState(4, 4, 64, CollectiveKind::AllReduce),
                 FatalError);
    EXPECT_THROW(ChunkState(4, -1, 64, CollectiveKind::AllReduce),
                 FatalError);
    EXPECT_THROW(ChunkState(0, 0, 64, CollectiveKind::AllReduce),
                 FatalError);
    EXPECT_THROW(ChunkState(4, 0, 64, CollectiveKind::None), FatalError);
}

} // namespace
} // namespace astra

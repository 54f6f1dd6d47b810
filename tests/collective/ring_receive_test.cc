// The collective passes' receive path: ring reduce-scatter and
// all-gather arrivals are buffered by step and processed strictly in
// step order, direct and all-to-all arrivals in arrival order, one
// endpoint delay apart; a step that arrives twice, on the wrong wire
// step or once too often is a schedule bug. An all-reduce holds an
// all-gather step that overtakes its own reduce-scatter until that
// pass completes.

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <vector>

#include "collective/direct_algorithms.hh"
#include "collective/ring_algorithms.hh"
#include "common/logging.hh"

namespace astra
{
namespace
{

/** One node of a d-node group, with its sends and completion recorded. */
class FakeRingNode : public AlgContext
{
  public:
    struct Sent
    {
        Tick at;
        int dst;
        int step;
        std::shared_ptr<const ChunkPayload> payload;
    };

    FakeRingNode(int d, int rank, CollectiveKind kind)
        : _data(d, rank, Bytes(d) * 1024, kind)
    {
        _facts = PhaseFacts{.groupSize = d,
                            .rank = rank,
                            .entryBytes = _data.totalBytes(),
                            .endpointDelay = kDelay};
    }

    ChunkState &data() override { return _data; }

    void
    send(int dst_rank, int, Bytes, int step,
         std::shared_ptr<const ChunkPayload> payload) override
    {
        sent.push_back(Sent{eq.now(), dst_rank, step, std::move(payload)});
    }

    void
    scheduleAfter(Tick delay, EventCallback fn) override
    {
        eq.scheduleAfter(delay, std::move(fn));
    }

    int phaseCoordOfGlobalRank(int global_rank) const override
    {
        return global_rank;
    }

    void
    phaseDone() override
    {
        doneAt = eq.now();
    }

    /** A message carrying @p payload as wire step @p step. */
    static Message
    message(int step, std::shared_ptr<const ChunkPayload> payload)
    {
        Message m;
        m.tag.step = step;
        m.payload = std::move(payload);
        return m;
    }

    static constexpr Tick kDelay = 10;

    EventQueue eq;
    std::vector<Sent> sent;
    Tick doneAt = kTickInvalid;

  private:
    ChunkState _data;
};

/**
 * A one-element payload for element @p block of a d-node chunk that
 * carries the contributions of @p ranks.
 */
std::shared_ptr<const ChunkPayload>
blockOf(int d, int block, std::initializer_list<int> ranks, bool reduce)
{
    auto p = std::make_shared<ChunkPayload>();
    p->range = ElemRange{block, block + 1};
    p->contribs.emplace_back(std::size_t(d));
    for (int r : ranks)
        p->contribs.back().set(std::size_t(r));
    p->reduce = reduce;
    return p;
}

/**
 * The all-gather block node 0 of a d-ring receives at step s (its
 * predecessor's relay of block d-1-s), fully formed.
 */
std::shared_ptr<const ChunkPayload>
gatherBlock(int d, int s)
{
    return blockOf(d, d - 1 - s, {d - 1 - s}, /*reduce=*/false);
}

TEST(RingReceive, OutOfOrderStepsAreAppliedInStepOrder)
{
    const int d = 5;
    FakeRingNode node(d, 0, CollectiveKind::AllGather);
    RingAllGather ag(node, /*first_step=*/0, nullptr);
    ag.start();
    ASSERT_EQ(node.sent.size(), 1u); // step 0: the own block

    // Deliver the steps back to front; each later step waits for its
    // predecessors.
    std::vector<std::shared_ptr<const ChunkPayload>> blocks;
    for (int s = 0; s < d - 1; ++s)
        blocks.push_back(gatherBlock(d, s));
    for (int s = d - 2; s >= 0; --s)
        ag.onMessage(FakeRingNode::message(s, blocks[std::size_t(s)]));
    EXPECT_EQ(node.sent.size(), 1u); // nothing processed synchronously
    node.eq.run();

    // Step s is processed at (s+1) endpoint delays and relays exactly
    // the block received at step s as step s+1, so the relays prove
    // the processing order.
    ASSERT_EQ(node.sent.size(), std::size_t(d - 1));
    for (int s = 0; s < d - 2; ++s) {
        const auto &relay = node.sent[std::size_t(s + 1)];
        EXPECT_EQ(relay.step, s + 1);
        EXPECT_EQ(relay.at, Tick(s + 1) * FakeRingNode::kDelay);
        EXPECT_EQ(relay.payload, blocks[std::size_t(s)]);
    }
    EXPECT_EQ(node.doneAt, Tick(d - 1) * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allValid());
}

TEST(RingReceive, StepArrivingBeforeStartWaitsForIt)
{
    const int d = 3;
    FakeRingNode node(d, 0, CollectiveKind::AllGather);
    RingAllGather ag(node, 0, nullptr);
    ag.onMessage(FakeRingNode::message(1, gatherBlock(d, 1)));
    ag.onMessage(FakeRingNode::message(0, gatherBlock(d, 0)));
    node.eq.run();
    EXPECT_TRUE(node.sent.empty());
    EXPECT_EQ(node.doneAt, kTickInvalid);

    ag.start();
    node.eq.run();
    EXPECT_EQ(node.sent.size(), std::size_t(d - 1));
    EXPECT_EQ(node.doneAt, Tick(d - 1) * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allValid());
}

TEST(RingReceive, DuplicateStepPanics)
{
    const int d = 4;
    FakeRingNode node(d, 0, CollectiveKind::AllGather);
    RingAllGather ag(node, 0, nullptr);
    ag.start();
    // Step 1 waits behind the missing step 0, so a second copy of it
    // is still buffered when it arrives.
    ag.onMessage(FakeRingNode::message(1, gatherBlock(d, 1)));
    EXPECT_THROW(ag.onMessage(FakeRingNode::message(1, gatherBlock(d, 1))),
                 FatalError);
}

TEST(RingReceive, StepOutsideThePassPanics)
{
    const int d = 4;
    FakeRingNode node(d, 0, CollectiveKind::AllGather);
    RingAllGather ag(node, /*first_step=*/d - 1, nullptr);
    EXPECT_THROW(ag.onMessage(FakeRingNode::message(0, gatherBlock(d, 0))),
                 FatalError);
    EXPECT_THROW(
        ag.onMessage(FakeRingNode::message(2 * (d - 1), gatherBlock(d, 0))),
        FatalError);
}

/** A one-block all-to-all payload from @p src to node 0. */
std::shared_ptr<const ChunkPayload>
blockFrom(int src)
{
    auto p = std::make_shared<ChunkPayload>();
    p->blocks.emplace_back(src, 0);
    return p;
}

TEST(RingAllToAllReceive, SameTickArrivalsAreProcessedOneDelayApart)
{
    const int d = 4;
    const Tick t = 100;
    FakeRingNode node(d, 0, CollectiveKind::AllToAll);
    RingAllToAll a2a(node);
    a2a.start();
    ASSERT_EQ(node.sent.size(), std::size_t(d - 1));
    for (int i = 1; i < d; ++i)
        EXPECT_EQ(node.sent[std::size_t(i - 1)].dst, i); // ring distance i

    // All d-1 messages arrive at one tick.
    const int order[] = {2, 3, 1};
    node.eq.schedule(t, [&] {
        for (int src : order)
            a2a.onMessage(FakeRingNode::message(0, blockFrom(src)));
    });

    // The endpoint handles them one at a time, first come first.
    for (int i = 1; i < d; ++i) {
        node.eq.runUntil(t + Tick(i) * FakeRingNode::kDelay);
        EXPECT_EQ(node.data().blocks().size(), std::size_t(i + 1));
        EXPECT_EQ(node.data().blocks().back().first, order[i - 1]);
    }
    node.eq.run();
    EXPECT_EQ(node.doneAt, t + Tick(d - 1) * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allToAllComplete());
}

TEST(RingAllToAllReceive, ArrivalBeforeStartWaitsForIt)
{
    const int d = 3;
    FakeRingNode node(d, 0, CollectiveKind::AllToAll);
    RingAllToAll a2a(node);
    a2a.onMessage(FakeRingNode::message(0, blockFrom(1)));
    a2a.onMessage(FakeRingNode::message(0, blockFrom(2)));
    node.eq.run();
    EXPECT_EQ(node.data().blocks().size(), std::size_t(d)); // untouched
    EXPECT_EQ(node.doneAt, kTickInvalid);

    const Tick started = node.eq.now();
    a2a.start();
    EXPECT_EQ(node.sent.size(), std::size_t(d - 1));
    node.eq.run();
    EXPECT_EQ(node.doneAt, started + Tick(d - 1) * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allToAllComplete());
}

TEST(RingAllToAllReceive, WrongStepOrExtraArrivalPanics)
{
    const int d = 3;
    FakeRingNode node(d, 0, CollectiveKind::AllToAll);
    RingAllToAll a2a(node);
    a2a.start();
    // Every message of the pass travels on its one wire step.
    EXPECT_THROW(a2a.onMessage(FakeRingNode::message(1, blockFrom(1))),
                 FatalError);
    a2a.onMessage(FakeRingNode::message(0, blockFrom(1)));
    a2a.onMessage(FakeRingNode::message(0, blockFrom(2)));
    EXPECT_THROW(a2a.onMessage(FakeRingNode::message(0, blockFrom(2))),
                 FatalError);
}

TEST(DirectReceive, ArrivalsAreAppliedInArrivalOrder)
{
    const int d = 4;
    FakeRingNode node(d, 0, CollectiveKind::AllToAll);
    DirectAllToAll a2a(node);
    a2a.start();
    ASSERT_EQ(node.sent.size(), std::size_t(d - 1));
    ASSERT_EQ(node.data().blocks().size(), 1u); // the own block stays

    const int order[] = {3, 1, 2};
    for (int src : order)
        a2a.onMessage(FakeRingNode::message(0, blockFrom(src)));
    EXPECT_EQ(node.data().blocks().size(), 1u);

    // One arrival is applied per endpoint delay, first come first.
    for (int i = 1; i < d; ++i) {
        node.eq.runUntil(Tick(i) * FakeRingNode::kDelay);
        ASSERT_EQ(node.data().blocks().size(), std::size_t(i + 1));
        EXPECT_EQ(node.data().blocks().back().first, order[i - 1]);
    }
    EXPECT_EQ(node.doneAt, Tick(d - 1) * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allToAllComplete());
}

TEST(DirectReceive, ArrivalBeforeStartWaitsForIt)
{
    const int d = 3;
    FakeRingNode node(d, 0, CollectiveKind::AllGather);
    DirectAllGather ag(node, 0, nullptr);
    ag.onMessage(FakeRingNode::message(0, gatherBlock(d, 0)));
    ag.onMessage(FakeRingNode::message(0, gatherBlock(d, 1)));
    node.eq.run();
    EXPECT_TRUE(node.sent.empty());
    EXPECT_EQ(node.doneAt, kTickInvalid);

    ag.start();
    EXPECT_EQ(node.sent.size(), std::size_t(d - 1));
    node.eq.run();
    EXPECT_EQ(node.doneAt, Tick(d - 1) * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allValid());
}

TEST(DirectReceive, WrongStepOrExtraArrivalPanics)
{
    const int d = 3;
    FakeRingNode node(d, 0, CollectiveKind::AllGather);
    // The all-gather pass of a direct all-reduce: wire step 1.
    DirectAllGather ag(node, /*first_step=*/1, nullptr);
    EXPECT_THROW(ag.onMessage(FakeRingNode::message(0, gatherBlock(d, 0))),
                 FatalError);
    ag.onMessage(FakeRingNode::message(1, gatherBlock(d, 0)));
    ag.onMessage(FakeRingNode::message(1, gatherBlock(d, 1)));
    EXPECT_THROW(ag.onMessage(FakeRingNode::message(1, gatherBlock(d, 1))),
                 FatalError);
}

TEST(AllReduceReceive, RingGatherStepWaitsForReduceScatter)
{
    const int d = 3;
    FakeRingNode node(d, 0, CollectiveKind::AllReduce);
    AllReduce<RingReduceScatter, RingAllGather> ar(node, d - 1);
    ar.start();
    ASSERT_EQ(node.sent.size(), 1u); // RS step 0

    // Node 2 is a step ahead: its all-gather step (wire step d-1)
    // arrives with both of its reduce-scatter steps.
    ar.onMessage(FakeRingNode::message(0, blockOf(d, 2, {2}, true)));
    ar.onMessage(FakeRingNode::message(d - 1, blockOf(d, 0, {0, 1, 2},
                                                      false)));
    ar.onMessage(FakeRingNode::message(1, blockOf(d, 1, {1, 2}, true)));
    node.eq.run();

    // RS steps at 1 and 2 delays; the RS pass completes and opens the
    // all-gather at 2 delays, and only then is the early step applied
    // and relayed, one delay later.
    ASSERT_EQ(node.sent.size(), 4u);
    const int steps[] = {0, 1, d - 1, d};
    const Tick at[] = {0, 1, 2, 3};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(node.sent[i].step, steps[i]);
        EXPECT_EQ(node.sent[i].at, at[i] * FakeRingNode::kDelay);
    }
    EXPECT_EQ(node.doneAt, kTickInvalid);

    ar.onMessage(FakeRingNode::message(d, blockOf(d, 2, {0, 1, 2},
                                                  false)));
    node.eq.run();
    EXPECT_EQ(node.doneAt, Tick(4) * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allReduced());
}

TEST(AllReduceReceive, DirectGatherStepWaitsForReduceScatter)
{
    const int d = 3;
    FakeRingNode node(d, 0, CollectiveKind::AllReduce);
    AllReduce<DirectReduceScatter, DirectAllGather> ar(node, 1);
    ar.start();
    ASSERT_EQ(node.sent.size(), std::size_t(d - 1)); // RS to each peer

    // Node 1 finished its reduce-scatter first: its all-gather block
    // arrives between the two partials of node 0's own block.
    ar.onMessage(FakeRingNode::message(0, blockOf(d, 0, {1}, true)));
    ar.onMessage(FakeRingNode::message(1, blockOf(d, 1, {0, 1, 2},
                                                  false)));
    ar.onMessage(FakeRingNode::message(0, blockOf(d, 0, {2}, true)));
    node.eq.run();

    // The RS pass applies its partials at 1 and 2 delays and then
    // broadcasts; the early block is applied one delay after that.
    ASSERT_EQ(node.sent.size(), std::size_t(2 * (d - 1)));
    EXPECT_EQ(node.sent.back().step, 1);
    EXPECT_EQ(node.sent.back().at, 2 * FakeRingNode::kDelay);
    EXPECT_EQ(node.eq.now(), 3 * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().valid(1));
    EXPECT_EQ(node.doneAt, kTickInvalid);

    ar.onMessage(FakeRingNode::message(1, blockOf(d, 2, {0, 1, 2},
                                                  false)));
    node.eq.run();
    EXPECT_EQ(node.doneAt, 4 * FakeRingNode::kDelay);
    EXPECT_TRUE(node.data().allReduced());
}

} // namespace
} // namespace astra

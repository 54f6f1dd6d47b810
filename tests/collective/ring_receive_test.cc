// The ring passes' receive path: arrivals are buffered by step and
// processed strictly in step order, one endpoint delay apart, and a
// step that arrives twice is a schedule bug.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "collective/ring_algorithms.hh"
#include "common/logging.hh"

namespace astra
{
namespace
{

/** One node of a d-ring, with its sends and completion recorded. */
class FakeRingNode : public AlgContext
{
  public:
    struct Sent
    {
        Tick at;
        int dst;
        int step;
        std::shared_ptr<RangePayload> payload;
    };

    FakeRingNode(int d, int rank, CollectiveKind kind)
        : _d(d), _rank(rank), _data(d, rank, Bytes(d) * 1024, kind)
    {}

    int groupSize() const override { return _d; }
    int myRank() const override { return _rank; }
    int direction() const override { return 1; }
    Bytes entryBytes() const override { return _data.totalBytes(); }
    ChunkState &data() override { return _data; }

    void
    sendToRank(int dst_rank, Bytes, int step,
               std::shared_ptr<void> payload) override
    {
        sent.push_back(Sent{eq.now(), dst_rank, step,
                            std::static_pointer_cast<RangePayload>(
                                std::move(payload))});
    }

    void
    sendToRankVia(int dst_rank, int, Bytes bytes, int step,
                  std::shared_ptr<void> payload) override
    {
        sendToRank(dst_rank, bytes, step, std::move(payload));
    }

    int numChannels() const override { return 1; }
    int myChannel() const override { return 0; }

    void
    scheduleAfter(Tick delay, EventCallback fn) override
    {
        eq.scheduleAfter(delay, std::move(fn));
    }

    Tick endpointDelay() const override { return kDelay; }
    int phaseCoordOfGlobalRank(int global_rank) const override
    {
        return global_rank;
    }

    void
    phaseDone() override
    {
        doneAt = eq.now();
    }

    /** A message carrying @p payload as ring step @p step. */
    static Message
    message(int step, std::shared_ptr<RangePayload> payload)
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
    int _d;
    int _rank;
    ChunkState _data;
};

/**
 * The all-gather block node 0 of a d-ring receives at step s (its
 * predecessor's relay of block d-1-s), fully formed.
 */
std::shared_ptr<RangePayload>
gatherBlock(int d, int s)
{
    const int block = d - 1 - s;
    auto p = std::make_shared<RangePayload>();
    p->range = ElemRange{block, block + 1};
    p->contribs.emplace_back(std::size_t(d));
    p->contribs.back().set(std::size_t(block));
    p->reduce = false;
    return p;
}

TEST(RingReceive, OutOfOrderStepsAreAppliedInStepOrder)
{
    const int d = 5;
    FakeRingNode node(d, 0, CollectiveKind::AllGather);
    RingAllGather ag(node, /*step_offset=*/0, [&node] { node.phaseDone(); });
    ag.start();
    ASSERT_EQ(node.sent.size(), 1u); // step 0: the own block

    // Deliver the steps back to front; each later step waits for its
    // predecessors.
    std::vector<std::shared_ptr<RangePayload>> blocks;
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
    RingAllGather ag(node, 0, [&node] { node.phaseDone(); });
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
    RingAllGather ag(node, 0, [&node] { node.phaseDone(); });
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
    RingAllGather ag(node, /*step_offset=*/d - 1,
                     [&node] { node.phaseDone(); });
    EXPECT_THROW(ag.onMessage(FakeRingNode::message(0, gatherBlock(d, 0))),
                 FatalError);
    EXPECT_THROW(
        ag.onMessage(FakeRingNode::message(2 * (d - 1), gatherBlock(d, 0))),
        FatalError);
}

} // namespace
} // namespace astra

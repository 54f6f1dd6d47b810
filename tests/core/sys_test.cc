#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "core/cluster.hh"

namespace astra
{
namespace
{

TEST(Sys, RejectsBadRequests)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    CollectiveRequest req;
    req.kind = CollectiveKind::None;
    req.bytes = 100;
    EXPECT_THROW(cluster.node(0).issueCollective(req), FatalError);
    req.kind = CollectiveKind::AllReduce;
    req.bytes = 0;
    EXPECT_THROW(cluster.node(0).issueCollective(req), FatalError);
}

TEST(Sys, HandleTracksLifecycle)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    cfg.preferredSetSplits = 4;
    Cluster cluster(cfg);
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.bytes = 4096;
    req.layer = 7;
    auto handles = cluster.issueAll(req);
    auto &h = handles[0];
    EXPECT_FALSE(h->done());
    EXPECT_EQ(h->remainingChunks, 4);
    EXPECT_EQ(h->layer, 7);
    EXPECT_EQ(h->kind, CollectiveKind::AllReduce);
    EXPECT_EQ(h->totalBytes, 4096u);
    cluster.run();
    EXPECT_TRUE(h->done());
    EXPECT_EQ(h->remainingChunks, 0);
    EXPECT_GT(h->duration(), 0u);
}

TEST(Sys, CompletionCallbackFiresOncePerNode)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Cluster cluster(cfg);
    int calls = 0;
    CollectiveRequest req;
    req.kind = CollectiveKind::AllGather;
    req.bytes = 1024;
    req.onComplete = [&calls] { ++calls; };
    cluster.issueAll(req);
    cluster.run();
    EXPECT_EQ(calls, 2);
}

TEST(Sys, SingleParticipantGroupCompletesWithoutTraffic)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1); // horizontal only; local dim is size 1
    Cluster cluster(cfg);
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.bytes = 4096;
    req.dims = {0}; // the degenerate dimension
    auto handles = cluster.issueAll(req);
    cluster.run();
    for (auto &h : handles)
        EXPECT_TRUE(h->done());
    EXPECT_EQ(cluster.network().deliveredMessages(), 0u);
    // The chunks complete through the same path as any other: counted.
    for (int n = 0; n < cluster.numNodes(); ++n) {
        const StatGroup &s = cluster.node(n).stats();
        EXPECT_DOUBLE_EQ(s.counter("completed.sets"),
                         s.counter("issued.sets"));
        EXPECT_DOUBLE_EQ(s.counter("completed.chunks"),
                         s.counter("issued.chunks"));
    }
}

TEST(Sys, StatsCountIssuesAndCompletions)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    cfg.preferredSetSplits = 4;
    Cluster cluster(cfg);
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.bytes = 64 * KiB;
    cluster.issueAll(req);
    cluster.run();
    const StatGroup &s = cluster.node(0).stats();
    EXPECT_DOUBLE_EQ(s.counter("issued.sets"), 1.0);
    EXPECT_DOUBLE_EQ(s.counter("issued.chunks"), 4.0);
    EXPECT_DOUBLE_EQ(s.counter("completed.sets"), 1.0);
    EXPECT_DOUBLE_EQ(s.counter("completed.chunks"), 4.0);
    EXPECT_DOUBLE_EQ(s.counter("issued.bytes"), 64.0 * KiB);
    EXPECT_GT(s.counter("sent.bytes"), 0.0);
    EXPECT_GT(s.counter("sent.messages"), 0.0);
}

TEST(Sys, SentBytesMatchRingAllReduceVolume)
{
    // One chunk, ring of 4, C bytes: RS sends 3 messages of C/4, AG
    // sends 3 of C/4 -> 1.5 C per node.
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    cfg.preferredSetSplits = 1;
    Cluster cluster(cfg);
    const Bytes c = 64 * KiB;
    cluster.runCollective(CollectiveKind::AllReduce, c);
    const StatGroup &s = cluster.node(0).stats();
    EXPECT_DOUBLE_EQ(s.counter("sent.bytes"), 1.5 * double(c));
    EXPECT_DOUBLE_EQ(s.counter("sent.messages"), 6.0);
}

TEST(Sys, BackToBackSetsComplete)
{
    SimConfig cfg;
    cfg.torus(2, 2, 2);
    Cluster cluster(cfg);
    std::vector<std::shared_ptr<CollectiveHandle>> all;
    for (int i = 0; i < 5; ++i) {
        CollectiveRequest req;
        req.kind = (i % 2) ? CollectiveKind::AllToAll
                           : CollectiveKind::AllReduce;
        req.bytes = 128 * KiB;
        auto hs = cluster.issueAll(req);
        all.insert(all.end(), hs.begin(), hs.end());
    }
    cluster.run();
    for (auto &h : all)
        EXPECT_TRUE(h->done());
}

TEST(Sys, ChainedIssueFromCompletionCallback)
{
    // Issuing a new collective from inside onComplete must work (the
    // workload layer does exactly this).
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Cluster cluster(cfg);
    int completed = 0;
    std::function<void(NodeId)> issue_next = [&](NodeId n) {
        CollectiveRequest req;
        req.kind = CollectiveKind::AllReduce;
        req.bytes = 4096;
        req.onComplete = [&completed] { ++completed; };
        cluster.node(n).issueCollective(req);
    };
    CollectiveRequest first;
    first.kind = CollectiveKind::AllReduce;
    first.bytes = 4096;
    first.onComplete = [&] {
        // Each node chains one more collective.
        static int fired = 0;
        issue_next(fired++ % 2);
    };
    cluster.issueAll(first);
    cluster.run();
    EXPECT_EQ(completed, 2);
}

TEST(Sys, InspectorSeesEveryChunk)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    cfg.preferredSetSplits = 3;
    Cluster cluster(cfg);
    int seen = 0;
    cluster.node(0).setStreamInspector([&](const Stream &s) {
        ++seen;
        EXPECT_EQ(s.kind(), CollectiveKind::AllReduce);
        EXPECT_EQ(s.plan().size(), 1u);
    });
    cluster.runCollective(CollectiveKind::AllReduce, 3000);
    EXPECT_EQ(seen, 3);
}

TEST(Sys, MessageForUnissuedStreamIsBufferedThenDrained)
{
    // Nodes 1..3 issue stream 1 while node 0 has not reached it yet:
    // their messages to node 0 wait in its unmatched buffer and are
    // replayed once node 0 issues the same collective.
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    cfg.preferredSetSplits = 1;
    Cluster cluster(cfg);
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.bytes = 64 * KiB;
    std::vector<std::shared_ptr<CollectiveHandle>> handles;
    for (NodeId n = 1; n < 4; ++n)
        handles.push_back(cluster.node(n).issueCollective(req));
    cluster.eventQueue().run();

    Sys &late = cluster.node(0);
    EXPECT_EQ(late.liveStreams(), 0u);
    EXPECT_TRUE(late.hasBufferedMessages(/*sid=*/1, /*phase=*/0));
    for (const auto &h : handles)
        EXPECT_FALSE(h->done());

    handles.push_back(late.issueCollective(req));
    cluster.run();
    for (const auto &h : handles)
        EXPECT_TRUE(h->done());
    EXPECT_FALSE(late.hasBufferedMessages(1, 0));
    EXPECT_EQ(late.liveStreams(), 0u);
}

TEST(Sys, StreamTableShrinksBackAfterManyCollectives)
{
    // 10,000 back-to-back collectives, each issued from the previous
    // one's completion: the stream table spans only the live chunks,
    // never the run, and is empty at the end.
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    cfg.preferredSetSplits = 2;
    Cluster cluster(cfg);
    constexpr int kCollectives = 10000;
    std::vector<int> issued(2, 0);
    std::size_t max_window = 0;
    std::function<void(NodeId)> issue = [&](NodeId n) {
        Sys &sys = cluster.node(n);
        if (issued[std::size_t(n)]++ == kCollectives)
            return;
        CollectiveRequest req;
        req.kind = CollectiveKind::AllReduce;
        req.bytes = 4096;
        req.onComplete = [&issue, n] { issue(n); };
        sys.issueCollective(req);
        max_window = std::max(max_window, sys.streamWindow());
    };
    issue(0);
    issue(1);
    cluster.run();
    for (NodeId n = 0; n < 2; ++n) {
        const Sys &sys = cluster.node(n);
        EXPECT_EQ(issued[std::size_t(n)], kCollectives + 1);
        EXPECT_EQ(sys.liveStreams(), 0u);
        EXPECT_EQ(sys.streamWindow(), 0u);
        EXPECT_DOUBLE_EQ(sys.stats().counter("completed.sets"),
                         double(kCollectives));
    }
    // One set (two chunks) is live per node at a time.
    EXPECT_EQ(max_window, 2u);
}

} // namespace
} // namespace astra

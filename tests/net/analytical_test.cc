#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "collective/chunk_state.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "net/analytical.hh"

namespace astra
{
namespace
{

/** Serialization time mirroring the backend's formula. */
Tick
tx(double bw, double eff, Bytes bytes)
{
    return static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / (bw * eff)));
}

struct Harness
{
    EventQueue eq;
    Topology topo;
    AnalyticalNetwork net;
    std::vector<std::pair<NodeId, Tick>> deliveries;

    explicit Harness(const SimConfig &cfg)
        : topo(cfg), net(eq, topo, cfg)
    {
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            net.setReceiver(n, [this, n](const Message &) {
                deliveries.emplace_back(n, eq.now());
            });
        }
    }

    void
    send(NodeId src, NodeId dst, Bytes bytes, RouteHint hint)
    {
        Message m;
        m.src = src;
        m.dst = dst;
        m.bytes = bytes;
        m.hint = hint;
        net.send(std::move(m));
    }
};

TEST(Analytical, SingleHopTimingIsTxPlusLatency)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(0, 1, 1000, RouteHint{1, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    const Tick expect = tx(25.0, 0.94, 1000) + 200;
    EXPECT_EQ(h.deliveries[0].second, expect);
}

TEST(Analytical, LocalLinksAreFaster)
{
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    Harness h(cfg);
    h.send(0, 1, 100000, RouteHint{0, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    const Tick expect = tx(200.0, 0.94, 100000) + 90;
    EXPECT_EQ(h.deliveries[0].second, expect);
}

TEST(Analytical, TwoMessagesOnOneLinkSerialize)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(0, 1, 1000, RouteHint{1, 0});
    h.send(0, 1, 1000, RouteHint{1, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 2u);
    const Tick t1 = tx(25.0, 0.94, 1000);
    EXPECT_EQ(h.deliveries[0].second, t1 + 200);
    EXPECT_EQ(h.deliveries[1].second, 2 * t1 + 200);
}

TEST(Analytical, DifferentChannelsDoNotContend)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(0, 1, 1000, RouteHint{1, 0});
    h.send(0, 1, 1000, RouteHint{1, 2}); // another forward ring
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 2u);
    EXPECT_EQ(h.deliveries[0].second, h.deliveries[1].second);
}

TEST(Analytical, SoftwareRoutingStoresAndForwards)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    cfg.packetRouting = PacketRouting::Software;
    Harness h(cfg);
    h.send(0, 2, 1000, RouteHint{1, 0}); // 2 hops
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    const Tick t1 = tx(25.0, 0.94, 1000);
    // hop1: tx + lat + router; hop2: tx + lat.
    EXPECT_EQ(h.deliveries[0].second, (t1 + 200 + 1) + (t1 + 200));
}

TEST(Analytical, HardwareRoutingCutsThrough)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    cfg.packetRouting = PacketRouting::Hardware;
    Harness h(cfg);
    h.send(0, 2, 1000, RouteHint{1, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    const Tick t1 = tx(25.0, 0.94, 1000);
    // Head advances after latency+router; serialization overlaps.
    EXPECT_EQ(h.deliveries[0].second, (200 + 1) + (t1 + 200));
}

TEST(Analytical, HardwareNeverSlowerThanSoftware)
{
    for (Bytes bytes : {Bytes(100), Bytes(10000), Bytes(1000000)}) {
        Tick sw, hw;
        {
            SimConfig cfg;
            cfg.torus(1, 8, 1);
            cfg.packetRouting = PacketRouting::Software;
            Harness h(cfg);
            h.send(0, 5, bytes, RouteHint{1, 0});
            h.eq.run();
            sw = h.deliveries.at(0).second;
        }
        {
            SimConfig cfg;
            cfg.torus(1, 8, 1);
            cfg.packetRouting = PacketRouting::Hardware;
            Harness h(cfg);
            h.send(0, 5, bytes, RouteHint{1, 0});
            h.eq.run();
            hw = h.deliveries.at(0).second;
        }
        EXPECT_LE(hw, sw) << "bytes=" << bytes;
    }
}

TEST(Analytical, LoopbackDeliversWithoutLinks)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(0, 0, 12345, RouteHint{1, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.deliveries[0].first, 0);
    EXPECT_EQ(h.net.byteHops(), 0u);
}

TEST(Analytical, ByteHopsAccumulatePerLink)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    Harness h(cfg);
    h.send(0, 2, 1000, RouteHint{1, 0}); // 2 hops
    h.eq.run();
    EXPECT_EQ(h.net.byteHops(), 2000u);
    EXPECT_EQ(h.net.deliveredMessages(), 1u);
}

TEST(Analytical, SwitchPathCrossesTwoPackageLinks)
{
    SimConfig cfg;
    cfg.allToAll(1, 4, 2);
    Harness h(cfg);
    h.send(0, 3, 1000, RouteHint{1, 1});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    const Tick t1 = tx(25.0, 0.94, 1000);
    EXPECT_EQ(h.deliveries[0].second, (t1 + 200 + 1) + (t1 + 200));
    EXPECT_EQ(h.net.byteHops(), 2000u);
}

TEST(Analytical, EfficiencyStretchesSerialization)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    cfg.package.efficiency = 0.5;
    Harness h(cfg);
    h.send(0, 1, 10000, RouteHint{1, 0});
    h.eq.run();
    EXPECT_EQ(h.deliveries.at(0).second, tx(25.0, 0.5, 10000) + 200);
}

// --- transfer slots: lifetime and reuse -------------------------------

TEST(Analytical, SixtyFourMessagesOnOneLinkDeliverInFifoOrder)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    std::vector<std::pair<std::int32_t, Tick>> got;
    h.net.setReceiver(1, [&](const Message &m) {
        got.emplace_back(m.tag.step, h.eq.now());
    });
    for (std::int32_t i = 0; i < 64; ++i) {
        Message m;
        m.src = 0;
        m.dst = 1;
        m.bytes = 1000;
        m.hint = RouteHint{1, 0};
        m.tag.step = i;
        h.net.send(std::move(m));
    }
    EXPECT_EQ(h.net.liveSlots(), 64u);
    EXPECT_THROW(h.net.validateDrain(), FatalError); // slots still live
    h.eq.run();
    ASSERT_EQ(got.size(), 64u);
    const Tick t1 = tx(25.0, 0.94, 1000);
    for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].first, std::int32_t(k));
        EXPECT_EQ(got[k].second, Tick(k + 1) * t1 + 200) << "k=" << k;
    }
    EXPECT_EQ(h.net.liveSlots(), 0u);
    h.net.validateDrain();
}

TEST(Analytical, SendFromInsideDeliverIsDelivered)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    Harness h(cfg);
    // Node 2 bounces the message back to node 0 from inside its
    // receiver; the send takes the slot the delivery just released.
    h.net.setReceiver(2, [&](const Message &m) {
        h.deliveries.emplace_back(2, h.eq.now());
        h.send(2, 0, m.bytes, RouteHint{1, 0});
    });
    h.send(0, 2, 1000, RouteHint{1, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 2u);
    EXPECT_EQ(h.deliveries[0].first, 2);
    EXPECT_EQ(h.deliveries[1].first, 0);
    EXPECT_GT(h.deliveries[1].second, h.deliveries[0].second);
    EXPECT_EQ(h.net.deliveredMessages(), 2u);
    EXPECT_EQ(h.net.liveSlots(), 0u);
}

TEST(Analytical, LossHandlerGetsTheMessageIntactAndMayResend)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    const LinkId down = h.net.fabric().resolve(0, 1, RouteHint{1, 0})[0];
    ASSERT_NE(h.net.fabric().resolve(0, 1, RouteHint{1, 2})[0], down);
    FaultPlan plan;
    plan.addRule(strprintf("down link=%d from=0 to=end", int(down)));
    FaultManager fm(std::move(plan));
    h.net.setFaults(&fm);

    auto payload = std::make_shared<ChunkPayload>();
    std::vector<Message> lost;
    std::vector<int> lostOn;
    h.net.setLossHandler([&](const Message &m, int link) {
        lost.push_back(m);
        lostOn.push_back(link);
        // Retransmit on a channel that avoids the down link.
        Message again = m;
        again.hint = RouteHint{1, 2};
        h.net.send(std::move(again));
    });

    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 1000;
    m.hint = RouteHint{1, 0};
    m.tag.stream = 7;
    m.tag.phase = 1;
    m.tag.step = 2;
    m.tag.srcRank = 3;
    m.payload = payload;
    h.net.send(std::move(m));
    h.eq.run();

    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lostOn[0], int(down));
    EXPECT_EQ(lost[0].src, 0);
    EXPECT_EQ(lost[0].dst, 1);
    EXPECT_EQ(lost[0].bytes, 1000u);
    EXPECT_EQ(lost[0].tag.stream, 7u);
    EXPECT_EQ(lost[0].tag.phase, 1);
    EXPECT_EQ(lost[0].tag.step, 2);
    EXPECT_EQ(lost[0].tag.srcRank, 3);
    EXPECT_EQ(lost[0].payload.get(), payload.get());
    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.deliveries[0].first, 1);
    EXPECT_EQ(h.net.lostMessages(), 1u);
    EXPECT_EQ(h.net.liveSlots(), 0u);
}

TEST(Analytical, PayloadIsReleasedAfterDelivery)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    Harness h(cfg);
    auto payload = std::make_shared<ChunkPayload>();
    Message m;
    m.src = 0;
    m.dst = 2;
    m.bytes = 1000;
    m.hint = RouteHint{1, 0};
    m.payload = payload;
    h.net.send(std::move(m));
    EXPECT_EQ(payload.use_count(), 2);
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(payload.use_count(), 1);
}

} // namespace
} // namespace astra

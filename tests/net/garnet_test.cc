#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "net/analytical.hh"
#include "net/garnet_lite.hh"

namespace astra
{
namespace
{

struct Harness
{
    EventQueue eq;
    Topology topo;
    GarnetLiteNetwork net;
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

TEST(GarnetLite, PacketizesPerLinkClass)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    // 1000 B on a 256 B inter-package link -> 4 packets.
    h.send(0, 1, 1000, RouteHint{1, 0});
    h.eq.run();
    EXPECT_EQ(h.net.deliveredPackets(), 4u);
    EXPECT_EQ(h.net.deliveredMessages(), 1u);
}

TEST(GarnetLite, SinglePacketTiming)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(0, 1, 200, RouteHint{1, 0}); // one 200 B packet, 2 flits
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    // 2 flits x 128 B at 25 B/cyc x 0.94 -> ceil(10.89) = 11 cycles,
    // plus wire latency and router pipeline.
    EXPECT_EQ(h.deliveries[0].second, 11u + 200u + 1u);
}

TEST(GarnetLite, MessageTimeMatchesFlitSerialization)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(0, 1, 1024, RouteHint{1, 0}); // 4 packets x 2 flits
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    // Packets serialize: grants at 0,11,22,33; last arrives at
    // 33 + 11 + 200 + 1.
    EXPECT_EQ(h.deliveries[0].second, 33u + 11u + 201u);
}

TEST(GarnetLite, AgreesWithAnalyticalWithinPacketizationOverhead)
{
    // On an uncongested single link the two backends should agree to
    // within the per-packet rounding overhead.
    for (Bytes bytes : {Bytes(4096), Bytes(65536), Bytes(1048576)}) {
        SimConfig cfg;
        cfg.torus(1, 2, 1);
        Tick tg, ta;
        {
            Harness h(cfg);
            h.send(0, 1, bytes, RouteHint{1, 0});
            h.eq.run();
            tg = h.deliveries.at(0).second;
        }
        {
            EventQueue eq;
            Topology topo(cfg);
            AnalyticalNetwork net(eq, topo, cfg);
            Tick got = 0;
            net.setReceiver(1, [&](const Message &) { got = eq.now(); });
            net.setReceiver(0, [](const Message &) {});
            Message m;
            m.src = 0;
            m.dst = 1;
            m.bytes = bytes;
            m.hint = RouteHint{1, 0};
            net.send(std::move(m));
            eq.run();
            ta = got;
        }
        const double ratio = static_cast<double>(tg) / double(ta);
        EXPECT_GT(ratio, 0.95) << "bytes=" << bytes;
        EXPECT_LT(ratio, 1.25) << "bytes=" << bytes;
    }
}

TEST(GarnetLite, TinyBuffersBackpressure)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    cfg.vcsPerVnet = 1;
    cfg.buffersPerVc = 2; // room for a single 2-flit packet per buffer
    Harness h(cfg);
    h.send(0, 2, 4096, RouteHint{1, 0}); // 16 packets over 2 hops
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.net.deliveredPackets(), 16u);
    EXPECT_LE(h.net.peakBufferOccupancy(), 2);
}

TEST(GarnetLite, SmallBuffersSlowCongestedTransfers)
{
    auto run = [](int buffers) {
        SimConfig cfg;
        cfg.torus(1, 8, 1);
        cfg.vcsPerVnet = 1;
        cfg.buffersPerVc = buffers;
        Harness h(cfg);
        h.send(0, 4, 64 * 1024, RouteHint{1, 0});
        h.eq.run();
        return h.deliveries.at(0).second;
    };
    // With deep buffers the pipeline streams; with room for only one
    // packet in flight per hop it must stall.
    EXPECT_GT(run(2), run(1000));
}

TEST(GarnetLite, NormalInjectionPacesPackets)
{
    auto run = [](InjectionPolicy pol) {
        SimConfig cfg;
        cfg.torus(1, 2, 1);
        cfg.injectionPolicy = pol;
        Harness h(cfg);
        h.send(0, 1, 16 * 1024, RouteHint{1, 0});
        h.eq.run();
        return h.deliveries.at(0).second;
    };
    // A single uncongested link drains either way; aggressive must not
    // be slower.
    EXPECT_LE(run(InjectionPolicy::Aggressive),
              run(InjectionPolicy::Normal));
}

TEST(GarnetLite, ZeroByteMessageStillDelivers)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(0, 1, 0, RouteHint{1, 0});
    h.eq.run();
    EXPECT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.net.deliveredPackets(), 1u);
}

TEST(GarnetLite, LoopbackBypassesNetwork)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    h.send(1, 1, 999, RouteHint{1, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.net.deliveredPackets(), 0u);
}

TEST(GarnetLite, ContendingFlowsShareALink)
{
    SimConfig cfg;
    cfg.torus(1, 4, 1);
    Harness h(cfg);
    // Both flows traverse link 1->2 on channel 0.
    h.send(0, 2, 32 * 1024, RouteHint{1, 0});
    h.send(1, 2, 32 * 1024, RouteHint{1, 0});
    h.eq.run();
    ASSERT_EQ(h.deliveries.size(), 2u);
    Tick lone;
    {
        Harness solo(cfg);
        solo.send(1, 2, 32 * 1024, RouteHint{1, 0});
        solo.eq.run();
        lone = solo.deliveries.at(0).second;
    }
    // The flow sharing the link must finish later than it would alone.
    const Tick later =
        std::max(h.deliveries[0].second, h.deliveries[1].second);
    EXPECT_GT(later, lone);
}

TEST(GarnetLite, PacketPoolRecyclesAcrossMessages)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    Harness h(cfg);
    // Many sequential messages of many packets each: the free list
    // must keep the arena near the peak in-flight count instead of
    // allocating one Packet per delivered packet.
    for (int i = 0; i < 20; ++i) {
        h.send(0, 1, 64 * 1024, RouteHint{1, 0});
        h.eq.run();
    }
    EXPECT_EQ(h.net.deliveredMessages(), 20u);
    EXPECT_GT(h.net.deliveredPackets(), h.net.allocatedPackets());
    // 64 KiB / 256 B = 256 packets per message; one message's worth of
    // concurrently-live packets bounds the arena.
    EXPECT_LE(h.net.allocatedPackets(), 256u);
}

// --- message slots: lifetime and reuse --------------------------------

TEST(GarnetLite, LinkDownToEndDropsItsQueueAndFreesEverySlot)
{
    // Route 0 -> 2 on channel 0 crosses links 0->1 and 1->2. Taking
    // either one down for the rest of the run drops every packet that
    // queues there: at the source (where Normal injection paces the
    // next packet from the drop) or one hop in (where the dead packets
    // hand back their upstream credits). The loss handler re-sends on
    // the other channel from inside notifyLoss.
    for (InjectionPolicy pol :
         {InjectionPolicy::Normal, InjectionPolicy::Aggressive}) {
        for (std::size_t down_hop : {std::size_t(0), std::size_t(1)}) {
            SimConfig cfg;
            cfg.torus(1, 4, 1);
            cfg.injectionPolicy = pol;
            Harness h(cfg);
            const std::vector<LinkId> route =
                h.net.fabric().resolve(0, 2, RouteHint{1, 0});
            ASSERT_EQ(route.size(), 2u);
            const LinkId down = route[down_hop];
            FaultPlan plan;
            plan.addRule(strprintf("down link=%d from=0 to=end", int(down)));
            FaultManager fm(std::move(plan));
            h.net.setFaults(&fm);

            std::vector<int> lost_on;
            h.net.setLossHandler([&](const Message &m, int link) {
                lost_on.push_back(link);
                Message again = m;
                again.hint = RouteHint{1, 1};
                h.net.send(std::move(again));
            });
            for (int i = 0; i < 3; ++i)
                h.send(0, 2, 4096, RouteHint{1, 0}); // 16 packets each
            h.eq.run();

            const std::string where =
                strprintf("policy=%d down_hop=%zu", int(pol), down_hop);
            EXPECT_EQ(lost_on, std::vector<int>(3, int(down))) << where;
            EXPECT_EQ(h.net.lostMessages(), 3u) << where;
            EXPECT_EQ(h.net.droppedPackets(), 48u) << where;
            EXPECT_EQ(h.deliveries.size(), 3u) << where;
            EXPECT_EQ(h.net.liveSlots(), 0u) << where;
            EXPECT_EQ(h.net.slotCapacity(), 64u) << where;
            h.net.validateDrain();
        }
    }
}

struct ScenarioResult
{
    std::vector<std::pair<NodeId, Tick>> deliveries;
    std::uint64_t packets;
    std::uint64_t events;
};

ScenarioResult
runCoalesceScenario(const SimConfig &cfg)
{
    Harness h(cfg);
    // Deep source queues (Aggressive injection) plus cross-traffic
    // sharing links, so grants interleave across senders and credits
    // run out on the fat message's path.
    h.send(0, 1, 8 * 1024, RouteHint{0, 0});
    h.send(0, 2, 8 * 1024, RouteHint{1, 0});
    h.send(3, 1, 4 * 1024, RouteHint{1, 0});
    h.send(2, 3, 32 * 1024, RouteHint{0, 0});
    h.send(1, 0, 8 * 1024, RouteHint{0, 0});
    h.eq.run();
    return ScenarioResult{std::move(h.deliveries),
                          h.net.deliveredPackets(),
                          h.eq.executedEvents()};
}

TEST(GarnetLite, CoalescedPumpsMatchBaselineDeliveries)
{
    // net-coalesce folds a busy source link's per-packet pump wake-ups
    // into batched grants. The fold must be observationally pure: the
    // same packets arrive at the same nodes at the same ticks, in the
    // same order — only the event count drops.
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    cfg.injectionPolicy = InjectionPolicy::Aggressive;
    const ScenarioResult base = runCoalesceScenario(cfg);

    SimConfig coalesced = cfg;
    coalesced.netCoalesce = true;
    const ScenarioResult coal = runCoalesceScenario(coalesced);

    EXPECT_EQ(base.deliveries, coal.deliveries);
    EXPECT_EQ(base.packets, coal.packets);
    EXPECT_LT(coal.events, base.events);
}

TEST(GarnetLite, CoalescingIsOffByDefault)
{
    // The determinism-digest contract covers default-config runs, so
    // the default must retire the exact un-coalesced event stream.
    SimConfig cfg;
    EXPECT_FALSE(cfg.netCoalesce);
    cfg.set("net-coalesce", "true");
    EXPECT_TRUE(cfg.netCoalesce);
    cfg.set("net-coalesce", "false");
    EXPECT_FALSE(cfg.netCoalesce);
}

} // namespace
} // namespace astra

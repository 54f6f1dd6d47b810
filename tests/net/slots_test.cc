// The in-flight message slab both backends share (SlotNetwork in
// net/fabric.hh): slot lifetime, reuse and the drain check, run
// against each backend.

#include <gtest/gtest.h>

#include <memory>

#include "collective/chunk_state.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "net/analytical.hh"
#include "net/garnet_lite.hh"

namespace astra
{
namespace
{

template <typename Net>
class FabricSlots : public ::testing::Test
{
};

using Backends = ::testing::Types<AnalyticalNetwork, GarnetLiteNetwork>;

TYPED_TEST_SUITE(FabricSlots, Backends);

TYPED_TEST(FabricSlots, ResendFromInsideDeliverReusesTheReleasedSlot)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    EventQueue eq;
    Topology topo(cfg);
    TypeParam net(eq, topo, cfg);
    net.setReceiver(0, [](const Message &) {});
    // 64 messages fill the first slab chunk exactly. Node 1 bounces
    // each one back from inside its receiver: the slot is freed before
    // deliver() runs, so the bounce takes it and the slab never grows
    // a second chunk while the other 63 are still in flight.
    auto payload = std::make_shared<ChunkPayload>();
    int bounced = 0;
    net.setReceiver(1, [&](const Message &m) {
        EXPECT_EQ(m.payload.get(), payload.get());
        ++bounced;
        Message back;
        back.src = 1;
        back.dst = 0;
        back.bytes = m.bytes;
        back.hint = RouteHint{1, 0};
        net.send(std::move(back));
    });
    for (int i = 0; i < 64; ++i) {
        Message m;
        m.src = 0;
        m.dst = 1;
        m.bytes = 1000;
        m.hint = RouteHint{1, 0};
        m.payload = payload;
        net.send(std::move(m));
    }
    EXPECT_EQ(net.liveSlots(), 64u);
    EXPECT_EQ(net.slotCapacity(), 64u);
    EXPECT_THROW(net.validateDrain(), FatalError); // slots still live
    eq.run();
    EXPECT_EQ(bounced, 64);
    EXPECT_EQ(net.deliveredMessages(), 128u);
    EXPECT_EQ(net.slotCapacity(), 64u);
    EXPECT_EQ(net.liveSlots(), 0u);
    // The network keeps no reference to a delivered payload.
    EXPECT_EQ(payload.use_count(), 1);
    net.validateDrain();
}

} // namespace
} // namespace astra

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"

namespace astra
{
namespace
{

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, PriorityBreaksTiesBeforeInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, /*priority=*/10);
    eq.schedule(5, [&] { order.push_back(2); }, /*priority=*/-1);
    eq.schedule(5, [&] { order.push_back(3); }, /*priority=*/0);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(10, [] {}), FatalError);
}

TEST(EventQueue, RejectedPastEventLeavesQueueIntact)
{
    // Regression: a past-dated schedule() must fail loudly *and*
    // atomically — no ghost entry may survive to corrupt ordering.
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    eq.schedule(100, [] {});
    EXPECT_EQ(eq.pendingEvents(), 1u);
    EXPECT_THROW(eq.schedule(10, [] {}), FatalError);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(50, [&] { eq.schedule(eq.now(), [&] { ran = true; }); });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SmallCallbacksNeedNoHeapAllocation)
{
    // The scheduling hot path: a capture of a couple of pointers/ids
    // must live in EventCallback's inline buffer.
    int a = 0;
    int *p = &a;
    std::uint64_t id = 7;
    EventCallback small([p, id] { *p = int(id); });
    EXPECT_TRUE(small.storedInline());
    small();
    EXPECT_EQ(a, 7);

    // Oversized captures transparently fall back to the heap.
    struct Big
    {
        char bytes[96];
    } big{};
    EventCallback large([big, p] { *p = big.bytes[0]; });
    EXPECT_FALSE(large.storedInline());
    large();
    EXPECT_EQ(a, 0);
}

TEST(EventQueue, MassCancellationReclaimsSlotsEagerly)
{
    // Cancelling an event recycles its slab slot immediately; only an
    // 8-byte stale ref stays parked in a bucket or the far heap.
    EventQueue eq;
    std::vector<EventId> victims;
    for (int i = 0; i < 1000; ++i)
        victims.push_back(eq.schedule(Tick(10 + i), [] {}));
    int survivors = 0;
    eq.schedule(2000, [&] { ++survivors; });
    for (EventId id : victims)
        EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.pendingEvents(), 1u);
    // Cancelled entries are dead handles already...
    for (EventId id : victims)
        EXPECT_FALSE(eq.live(id));
    // ...and their slots get reused: scheduling 1000 fresh events must
    // not grow the slab past its existing high-water mark.
    const std::size_t high_water = eq.allocatedSlots();
    std::vector<EventId> fresh;
    for (int i = 0; i < 1000; ++i)
        fresh.push_back(eq.schedule(Tick(10 + i), [] {}));
    EXPECT_EQ(eq.allocatedSlots(), high_water);
    for (EventId id : fresh)
        EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(survivors, 1);
    EXPECT_EQ(eq.now(), 2000u);
}

TEST(EventQueue, FarHeapPurgeCompactsStaleRefs)
{
    // Events past the rung horizon (kRungBlocks blocks beyond the
    // distributed one) park in the far heap; cancelling most of them
    // triggers the bulk purge so stale refs never dominate the heap.
    EventQueue eq;
    const Tick far =
        (Tick(EventQueue::kRungBlocks + 2) << EventQueue::kBlockBits) + 100;
    std::vector<EventId> victims;
    for (int i = 0; i < 1000; ++i)
        victims.push_back(eq.schedule(far + Tick(i), [] {}));
    EXPECT_EQ(eq.farHeapSize(), 1000u);
    int survivors = 0;
    eq.schedule(far + 2000, [&] { ++survivors; });
    for (EventId id : victims)
        EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.pendingEvents(), 1u);
    EXPECT_LT(eq.staleFarRefs(), 1000u);
    EXPECT_LT(eq.farHeapSize(), 1001u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(survivors, 1);
    EXPECT_EQ(eq.now(), far + 2000);
}

TEST(EventQueue, CancellationKeepsOrderingDeterministic)
{
    // Interleave schedules and cancels and check the survivors still
    // fire in exact (tick, priority, FIFO) order.
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> cancel_later;
    for (int i = 0; i < 200; ++i) {
        EventId id =
            eq.schedule(Tick(100 + i % 7), [&order, i] { order.push_back(i); });
        if (i % 3 == 0)
            cancel_later.push_back(id);
    }
    for (EventId id : cancel_later)
        eq.cancel(id);
    eq.run();
    std::vector<int> expect;
    for (int tick = 0; tick < 7; ++tick)
        for (int i = 0; i < 200; ++i)
            if (i % 7 == tick && i % 3 != 0)
                expect.push_back(i);
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.now(), 0u); // nothing executed
}

TEST(EventQueue, CancelTwiceReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, PendingCountTracksCancellation)
{
    EventQueue eq;
    EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pendingEvents(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, RunMaxEventsStopsEarly)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(Tick(i), [&] { ++count; });
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.pendingEvents(), 6u);
}

TEST(EventQueue, RunUntilIsInclusiveAndAdvancesTime)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(21, [&] { ++count; });
    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    // Time advances to the requested point even with no events there.
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 50)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 50);
    EXPECT_EQ(eq.now(), 49u);
    EXPECT_EQ(eq.executedEvents(), 50u);
}

TEST(EventQueue, CancelFromInsideAnEvent)
{
    EventQueue eq;
    bool victim_ran = false;
    EventId victim = eq.schedule(20, [&] { victim_ran = true; });
    eq.schedule(10, [&] { EXPECT_TRUE(eq.cancel(victim)); });
    eq.run();
    EXPECT_FALSE(victim_ran);
}

} // namespace
} // namespace astra

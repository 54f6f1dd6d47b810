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

} // namespace
} // namespace astra

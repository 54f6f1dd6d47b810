/**
 * @file
 * Model-based tests for the ladder-queue event core: a reference
 * binary-heap queue with the contractual (tick, priority, seq) FIFO
 * ordering runs side by side with the real EventQueue through
 * deterministic, counter-derived schedule/cancel/runUntil sequences,
 * and both must fire the exact same event stream.
 *
 * No RNG anywhere (astra-lint bans it): every "varied" quantity is
 * derived from the operation index through an integer mixing function,
 * so a failure reproduces bit-for-bit from the test source alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/event_queue.hh"

namespace astra
{
namespace
{

/**
 * SplitMix64-style finalizer: a fixed bijective scramble of the
 * operation counter. Deterministic arithmetic, not a random source.
 */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Reference implementation of the EventQueue ordering contract: an
 * unordered pending list popped by exhaustive (when, priority, seq)
 * minimum search. Obviously correct, O(n) per pop — the oracle the
 * ladder queue must match event for event.
 */
class ReferenceQueue
{
  public:
    std::uint64_t
    schedule(Tick when, int priority, int tag)
    {
        EXPECT_GE(when, _now);
        _pending.push_back(Ev{when, _seq, priority, tag});
        return _seq++;
    }

    bool
    cancel(std::uint64_t id)
    {
        for (std::size_t i = 0; i < _pending.size(); ++i) {
            if (_pending[i].seq == id) {
                _pending.erase(_pending.begin() +
                               static_cast<std::ptrdiff_t>(i));
                return true;
            }
        }
        return false;
    }

    /** Fire everything with when <= until into @p fired (tags). */
    void
    runUntil(Tick until, std::vector<int> &fired)
    {
        for (;;) {
            std::size_t best = _pending.size();
            for (std::size_t i = 0; i < _pending.size(); ++i) {
                if (_pending[i].when > until)
                    continue;
                if (best == _pending.size() ||
                    firesBefore(_pending[i], _pending[best])) {
                    best = i;
                }
            }
            if (best == _pending.size())
                break;
            _now = _pending[best].when;
            fired.push_back(_pending[best].tag);
            _pending.erase(_pending.begin() +
                           static_cast<std::ptrdiff_t>(best));
        }
        _now = std::max(_now, until);
    }

    /**
     * runBounded() semantics: fire at most @p max events with when <=
     * @p until, leaving time at the last fired tick. @return the count.
     */
    std::uint64_t
    runBounded(Tick until, std::uint64_t max, std::vector<int> &fired)
    {
        std::uint64_t n = 0;
        int tag = 0;
        while (n < max && nextWhen() <= until && stepOne(&tag)) {
            fired.push_back(tag);
            ++n;
        }
        return n;
    }

    /**
     * Fire exactly the next pending event (unbounded), writing its tag
     * to @p tag. @return false when drained. Lets a driver interleave
     * re-entrant scheduling between pops, like a real callback would.
     */
    bool
    stepOne(int *tag)
    {
        std::size_t best = _pending.size();
        for (std::size_t i = 0; i < _pending.size(); ++i) {
            if (best == _pending.size() ||
                firesBefore(_pending[i], _pending[best])) {
                best = i;
            }
        }
        if (best == _pending.size())
            return false;
        _now = _pending[best].when;
        *tag = _pending[best].tag;
        _pending.erase(_pending.begin() +
                       static_cast<std::ptrdiff_t>(best));
        return true;
    }

    Tick now() const { return _now; }
    std::size_t pending() const { return _pending.size(); }

    /** Earliest pending tick (kTickInvalid when drained). */
    Tick
    nextWhen() const
    {
        Tick t = kTickInvalid;
        for (const Ev &ev : _pending)
            t = std::min(t, ev.when);
        return t;
    }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        int priority;
        int tag;
    };

    static bool
    firesBefore(const Ev &a, const Ev &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    std::vector<Ev> _pending;
    Tick _now = 0;
    std::uint64_t _seq = 0;
};

/**
 * Drive @p ops counter-derived operations through both queues with
 * tick deltas drawn from [0, spread) and compare the fired-tag streams
 * after every runUntil window and at the final drain.
 */
void
runSideBySide(int ops, std::uint64_t spread)
{
    EventQueue eq;
    // The reference is the exact oracle here. The per-event ordering
    // audit of --validate=full assumes nothing is scheduled into the
    // current tick below the last fired priority, which the schedules
    // after each runUntil() window do on purpose.
    eq.setOrderAudit(false);
    ReferenceQueue ref;
    std::vector<int> eq_fired, ref_fired;
    std::vector<std::pair<EventId, std::uint64_t>> live;

    for (int i = 0; i < ops; ++i) {
        const std::uint64_t r = mix(std::uint64_t(i));
        const Tick when = eq.now() + Tick(mix(r) % spread);
        const int priority = int(mix(r + 1) % 5) - 2;
        const int tag = i;

        const EventId id = eq.schedule(
            when, [&eq_fired, tag] { eq_fired.push_back(tag); },
            priority);
        const std::uint64_t rid = ref.schedule(when, priority, tag);
        live.emplace_back(id, rid);

        // Every third op cancels a mixer-chosen earlier event; the
        // two queues must agree on whether it was still pending.
        if (i % 3 == 2 && !live.empty()) {
            const std::size_t victim = std::size_t(r % live.size());
            EXPECT_EQ(eq.cancel(live[victim].first),
                      ref.cancel(live[victim].second))
                << "op " << i;
        }
        // Every seventh op runs a window forward.
        if (i % 7 == 6) {
            const Tick until = eq.now() + Tick(mix(r + 2) % (2 * spread));
            eq.runUntil(until);
            ref.runUntil(until, ref_fired);
            ASSERT_EQ(eq_fired, ref_fired) << "after op " << i;
            EXPECT_EQ(eq.now(), ref.now());
        }
    }

    eq.run();
    ref.runUntil(kTickInvalid - 1, ref_fired);
    ASSERT_EQ(eq_fired, ref_fired);
    EXPECT_EQ(eq.pendingEvents(), ref.pending());
    eq.validateDrained();
}

/**
 * Lockstep harness: every schedule/cancel goes to both queues and the
 * fired streams are compared after every step()/runUntil()/
 * runBounded(). Scheduling between two steps sees the same now() and
 * seq order as scheduling from inside the fired callback would.
 */
class Mirror
{
  public:
    static constexpr Tick kBlock = Tick(1) << EventQueue::kBlockBits;

    // Schedules at now() after a step may undercut the last fired
    // priority, which the ordering audit would flag (see runSideBySide).
    Mirror() { eq.setOrderAudit(false); }

    int
    schedule(Tick when, int priority)
    {
        const int tag = int(_ids.size());
        const EventId id = eq.schedule(
            when, [this, tag] { _eqFired.push_back(tag); }, priority);
        _ids.emplace_back(id, ref.schedule(when, priority, tag));
        return tag;
    }

    bool
    cancel(int tag)
    {
        const auto &[id, rid] = _ids[std::size_t(tag)];
        const bool hit = eq.cancel(id);
        EXPECT_EQ(hit, ref.cancel(rid)) << "tag " << tag;
        return hit;
    }

    /** Fire one event in each queue; @return its tag, -1 when drained. */
    int
    step()
    {
        int tag = -1;
        const bool ran = eq.step();
        EXPECT_EQ(ran, ref.stepOne(&tag));
        if (ran)
            _refFired.push_back(tag);
        check();
        return ran ? tag : -1;
    }

    void
    runUntil(Tick until)
    {
        eq.runUntil(until);
        ref.runUntil(until, _refFired);
        check();
    }

    void
    runBounded(Tick until, std::uint64_t max)
    {
        EXPECT_EQ(eq.runBounded(until, max),
                  ref.runBounded(until, max, _refFired));
        check();
    }

    void
    drain()
    {
        eq.run();
        int tag = 0;
        while (ref.stepOne(&tag))
            _refFired.push_back(tag);
        check();
        EXPECT_EQ(eq.pendingEvents(), 0u);
        eq.validateDrained();
    }

    std::size_t scheduled() const { return _ids.size(); }
    std::size_t fired() const { return _eqFired.size(); }

    EventQueue eq;
    ReferenceQueue ref;

  private:
    /** Compare the streams fired since the last check. */
    void
    check()
    {
        ASSERT_EQ(_eqFired.size(), _refFired.size());
        for (; _checked < _eqFired.size(); ++_checked) {
            ASSERT_EQ(_eqFired[_checked], _refFired[_checked])
                << "fired #" << _checked << " at tick " << eq.now();
        }
        EXPECT_EQ(eq.now(), ref.now());
        EXPECT_EQ(eq.pendingEvents(), ref.pending());
    }

    std::vector<std::pair<EventId, std::uint64_t>> _ids;
    std::vector<int> _eqFired, _refFired;
    std::size_t _checked = 0;
};

TEST(EventQueueModel, DenseNearTraffic)
{
    // Deltas inside a few buckets: same-tick FIFO ties, priority
    // inversions, dirty-bucket sorts.
    runSideBySide(3000, 16);
}

TEST(EventQueueModel, WindowStraddlingTraffic)
{
    // Deltas up to 1.5 windows: bucket appends, rung parks one or two
    // blocks out, distribution into the buckets, cancellations of both
    // bucketed and parked refs.
    runSideBySide(2000, EventQueue::kWindow + EventQueue::kWindow / 2);
}

TEST(EventQueueModel, SparseFarTraffic)
{
    // Mostly-far deltas: epoch leaps where nothing is bucketed and the
    // cursor leaps to the first rung block's or the far heap's minimum.
    runSideBySide(600, 64 * EventQueue::kWindow);
}

TEST(EventQueueModel, SameTickBucketStorm)
{
    // Bucket overflow: thousands of refs in one tick's bucket with
    // mixed priorities must still fire in exact (priority, seq) order.
    EventQueue eq;
    ReferenceQueue ref;
    std::vector<int> eq_fired, ref_fired;
    for (int i = 0; i < 5000; ++i) {
        const int priority = int(mix(std::uint64_t(i)) % 7) - 3;
        eq.schedule(
            100, [&eq_fired, i] { eq_fired.push_back(i); }, priority);
        ref.schedule(100, priority, i);
    }
    eq.run();
    ref.runUntil(100, ref_fired);
    ASSERT_EQ(eq_fired, ref_fired);
    eq.validateDrained();
}

constexpr int kCascadeDepth = 6;

Tick
successorDelta(int tag)
{
    return Tick(mix(std::uint64_t(tag)) % (2 * EventQueue::kWindow));
}

int
successorPriority(int tag)
{
    return int(mix(std::uint64_t(tag) + 7) % 3) - 1;
}

/** Re-entrant cascade driver for the real queue: each fired event
 *  schedules its successor from inside the callback. */
struct Cascade
{
    EventQueue &eq;
    std::vector<int> &fired;

    void
    fire(int tag)
    {
        fired.push_back(tag);
        if (tag % kCascadeDepth == kCascadeDepth - 1)
            return;
        eq.scheduleAfter(
            successorDelta(tag), [this, tag] { fire(tag + 1); },
            successorPriority(tag));
    }
};

TEST(EventQueueModel, ReentrantCascadesMatch)
{
    // Callbacks that schedule follow-ups while the cursor is mid-
    // bucket: successor deltas derived from the firing tag, spanning
    // same-tick appends, near appends and far spills. The reference
    // runs the identical cascade rule, one pop at a time.
    constexpr int kSeeds = 40;

    EventQueue eq;
    std::vector<int> eq_fired;
    Cascade cascade{eq, eq_fired};
    for (int s = 0; s < kSeeds; ++s) {
        const int tag = s * kCascadeDepth;
        eq.schedule(
            Tick(mix(std::uint64_t(s) + 99) % 200),
            [&cascade, tag] { cascade.fire(tag); },
            successorPriority(tag));
    }
    eq.run();

    ReferenceQueue ref;
    std::vector<int> ref_fired;
    for (int s = 0; s < kSeeds; ++s) {
        const int tag = s * kCascadeDepth;
        ref.schedule(Tick(mix(std::uint64_t(s) + 99) % 200),
                     successorPriority(tag), tag);
    }
    int tag = 0;
    while (ref.stepOne(&tag)) {
        ref_fired.push_back(tag);
        if (tag % kCascadeDepth != kCascadeDepth - 1) {
            ref.schedule(ref.now() + successorDelta(tag),
                         successorPriority(tag), tag + 1);
        }
    }
    ASSERT_EQ(eq_fired, ref_fired);
    eq.validateDrained();
}

TEST(EventQueueModel, CancelAfterFireFails)
{
    EventQueue eq;
    int fired = 0;
    const EventId id = eq.schedule(5, [&fired] { ++fired; });
    EXPECT_TRUE(eq.live(id));
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.live(id));
    EXPECT_FALSE(eq.cancel(id)) << "cancel after fire must fail";
    EXPECT_FALSE(eq.cancel(id)) << "and stay failed";

    // Cancelling yourself from inside your own callback is also a
    // miss: the handle dies the moment the event is taken to fire.
    EventId self = kEventIdInvalid;
    bool self_cancelled = true;
    self = eq.schedule(10, [&eq, &self, &self_cancelled] {
        self_cancelled = eq.cancel(self);
    });
    eq.run();
    EXPECT_FALSE(self_cancelled);
    eq.validateDrained();
}

TEST(EventQueueModel, GenerationWraparoundOfRecycledSlots)
{
    EventQueue eq;
    int fired = 0;
    const EventId first = eq.schedule(1, [&fired] { ++fired; });
    const std::uint32_t slot = EventQueue::slotOf(first);
    eq.run();
    EXPECT_EQ(fired, 1);

    // Park the freed slot at the maximum generation; the slab hands
    // the same slot back LIFO, so the next event allocates it.
    eq.debugSetFreeSlotGeneration(slot, 0xffffffffU);
    const EventId wrapped = eq.schedule(2, [&fired] { ++fired; });
    ASSERT_EQ(EventQueue::slotOf(wrapped), slot);
    EXPECT_EQ(EventQueue::genOf(wrapped), 0xffffffffU);
    EXPECT_TRUE(eq.live(wrapped));
    EXPECT_FALSE(eq.live(first));
    eq.run();
    EXPECT_EQ(fired, 2);

    // Firing at generation 2^32-1 wraps — but never through 0, which
    // is reserved so kEventIdInvalid can never match a live slot.
    const EventId after = eq.schedule(3, [&fired] { ++fired; });
    ASSERT_EQ(EventQueue::slotOf(after), slot);
    EXPECT_EQ(EventQueue::genOf(after), 1u);
    EXPECT_NE(EventQueue::genOf(after), 0u);
    EXPECT_FALSE(eq.live(wrapped));
    EXPECT_FALSE(eq.cancel(wrapped));
    EXPECT_FALSE(eq.live(kEventIdInvalid));
    EXPECT_FALSE(eq.cancel(kEventIdInvalid));
    eq.run();
    EXPECT_EQ(fired, 3);
    eq.validateDrained();
}

TEST(EventQueueModel, FarSpillMigratesInOrder)
{
    // Events in all three tiers that collide on a bucket index (ticks
    // congruent modulo kWindow) or on a rung list (blocks congruent
    // modulo kRungBlocks) must still fire strictly by time.
    EventQueue eq;
    std::vector<int> fired;
    const Tick w = Tick(EventQueue::kWindow);
    const Tick r = Tick(EventQueue::kRungBlocks) << EventQueue::kBlockBits;
    const Tick ticks[] = {5,         w - 1,     w,         w + 5,
                          2 * w + 5, 3 * w,     7 * w,     7 * w,
                          9 * w - 1, r,         r + 5,     r + w + 5,
                          2 * r,     2 * r + 5, 3 * r - 1, 3 * r - 1};
    int tag = 0;
    for (const Tick t : ticks) {
        eq.schedule(t, [&fired, tag] { fired.push_back(tag); });
        ++tag;
    }
    EXPECT_GT(eq.rungSize(), 0u);
    EXPECT_GT(eq.farHeapSize(), 0u);
    eq.run();
    ASSERT_EQ(fired.size(), std::size(ticks));
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(eq.rungSize(), 0u);
    EXPECT_EQ(eq.farHeapSize(), 0u);
    eq.validateDrained();
}

TEST(EventQueueModel, PipelineReparkStorm)
{
    // The GPT-2 pipeline's traffic: transfers contend for a few links,
    // and a busy link re-parks the transfer at its free tick, 4-8
    // windows ahead — so many events share one tick parked in the rung
    // and re-park again when an earlier waiter takes the link. Mixed
    // priorities; parked events are cancelled along the way.
    constexpr std::size_t kLinks = 3;
    constexpr std::size_t kBudget = 12000;
    const Tick w = Tick(EventQueue::kWindow);
    Mirror m;
    Tick free_at[kLinks] = {};
    std::vector<int> parked;
    for (int i = 0; i < 64; ++i)
        m.schedule(Tick(mix(std::uint64_t(i)) % 32), i % 3 - 1);
    for (std::uint64_t n = 0;; ++n) {
        const int tag = m.step();
        if (tag < 0)
            break;
        if (m.scheduled() >= kBudget)
            continue; // let the storm drain
        const std::uint64_t r = mix(std::uint64_t(tag) + 1000 * n);
        const Tick now = m.eq.now();
        Tick &link = free_at[r % kLinks];
        const int priority = int(mix(r + 1) % 3) - 1;
        if (link > now) {
            parked.push_back(m.schedule(link, priority));
        } else {
            link = now + 4 * w + Tick(mix(r + 2) % (4 * w));
            m.schedule(now + 1 + Tick(mix(r + 3) % 64), priority);
            if (r % 4 == 0)
                m.schedule(link, priority);
        }
        if (n % 5 == 4 && !parked.empty())
            m.cancel(parked[mix(r + 4) % parked.size()]);
    }
    EXPECT_GE(m.fired(), kBudget / 2);
    m.drain();
}

TEST(EventQueueModel, DirectScheduleIntoParkedBlock)
{
    // A tick within kWindow of now() whose block is not distributed
    // yet already holds refs parked in the rung. A direct schedule
    // there must park behind them, not jump ahead into a bucket: at
    // tick t all priorities are equal, so only seq orders them (and
    // no priority undercut triggers a sort that would hide a
    // misordering); tick t + 1 mixes priorities.
    Mirror m;
    const Tick t = 20 * Mirror::kBlock + 10;
    for (int i = 0; i < 40; ++i) {
        m.schedule(t, 0);
        m.schedule(t + 1, int(mix(std::uint64_t(i)) % 3) - 1);
    }
    m.cancel(6);
    m.runUntil(t - (EventQueue::kWindow - 100));
    ASSERT_LT(t - m.eq.now(), Tick(EventQueue::kWindow));
    ASSERT_GT(t >> EventQueue::kBlockBits,
              (m.eq.now() >> EventQueue::kBlockBits) + 1);
    for (int i = 0; i < 20; ++i) {
        m.schedule(t, 0);
        m.schedule(t + 1, int(mix(std::uint64_t(i) + 50) % 3) - 1);
    }
    m.cancel(7);
    // Step into the block before t's, then schedule again: now t's
    // block is the distributed one.
    m.schedule(t - Mirror::kBlock, 0);
    m.step();
    ASSERT_EQ(m.eq.now(), t - Mirror::kBlock);
    for (int i = 0; i < 10; ++i)
        m.schedule(t, 0);
    m.drain();
}

TEST(EventQueueModel, RunUntilStopsMidBlockThenSchedules)
{
    // runUntil()/runBounded() stopping mid-block (and runBounded()
    // mid-tick), then schedules at now(), into the parked blocks ahead
    // and past the rung.
    Mirror m;
    const Tick blk = Mirror::kBlock;
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t r = mix(std::uint64_t(i) + 77);
        m.schedule(Tick(r % (12 * blk)), int(r >> 40) % 3 - 1);
    }
    for (int k = 0; k < 120; ++k) {
        const std::uint64_t r = mix(std::uint64_t(k) + 5000);
        if (k % 2 == 0)
            m.runUntil(m.eq.now() + Tick(r % (2 * blk)));
        else
            m.runBounded(m.eq.now() + Tick(r % (3 * blk)), 1 + r % 9);
        const Tick now = m.eq.now();
        const int priority = int(mix(r + 1) % 3) - 1;
        m.schedule(now, priority);
        m.schedule(now + Tick(mix(r + 2) % (3 * blk)), priority);
        m.schedule(now + Tick(mix(r + 3) % (40 * blk)), -priority);
        if (k % 7 == 3) {
            const Tick past = Tick(EventQueue::kRungBlocks + 3) * blk;
            m.schedule(now + past + Tick(mix(r + 4) % blk), priority);
        }
        if (k % 3 == 1)
            m.cancel(int(mix(r + 5) % m.scheduled()));
    }
    m.drain();
}

TEST(EventQueueModel, FarHeapRefillsRung)
{
    // Deltas a few blocks either side of the rung horizon: parks in
    // the far heap that refill the rung as it advances, cancellations
    // of heap and rung refs, and leaps across empty stretches.
    runSideBySide(2500, Tick(EventQueue::kRungBlocks + 6)
                            << EventQueue::kBlockBits);
}

TEST(EventQueueModel, CancelledRungRefsDieWithTheirBlock)
{
    // A cancelled rung ref is dropped when its block leaves the rung —
    // both when time walks into the block and when a leap skips it.
    EventQueue eq;
    const Tick blk = Tick(1) << EventQueue::kBlockBits;
    const Tick t = 10 * blk + 7;
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(eq.schedule(t + Tick(i % 50), [] {}));
    EXPECT_EQ(eq.rungSize(), 1000u);
    EXPECT_EQ(eq.farHeapSize(), 0u);
    for (const EventId id : ids)
        EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.pendingEvents(), 0u);
    eq.runUntil(t - blk);
    EXPECT_EQ(eq.rungSize(), 0u);

    ids.clear();
    for (int i = 0; i < 100; ++i)
        ids.push_back(eq.schedule(t + 5 * blk, [] {}));
    int fired = 0;
    eq.schedule(t + 30 * blk, [&fired] { ++fired; });
    for (const EventId id : ids)
        EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.rungSize(), 101u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.rungSize(), 0u);
    eq.validateDrained();
}

} // namespace
} // namespace astra

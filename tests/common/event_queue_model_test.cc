/**
 * @file
 * Model-based tests for the ladder-queue event core: a reference
 * binary-heap queue with the contractual (tick, priority, seq) FIFO
 * ordering runs side by side with the real EventQueue through
 * deterministic, counter-derived schedule/runUntil sequences,
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
    void
    schedule(Tick when, int priority, int tag)
    {
        EXPECT_GE(when, _now);
        _pending.push_back(Ev{when, _seq++, priority, tag});
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

    for (int i = 0; i < ops; ++i) {
        const std::uint64_t r = mix(std::uint64_t(i));
        const Tick when = eq.now() + Tick(mix(r) % spread);
        const int priority = int(mix(r + 1) % 5) - 2;
        const int tag = i;

        eq.schedule(
            when, [&eq_fired, tag] { eq_fired.push_back(tag); },
            priority);
        ref.schedule(when, priority, tag);

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
 * Lockstep harness: every schedule goes to both queues and the
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
        const int tag = _scheduled++;
        eq.schedule(
            when, [this, tag] { _eqFired.push_back(tag); }, priority);
        ref.schedule(when, priority, tag);
        return tag;
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

    std::size_t scheduled() const { return std::size_t(_scheduled); }
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

    int _scheduled = 0;
    std::vector<int> _eqFired, _refFired;
    std::size_t _checked = 0;
};

TEST(EventQueueModel, DenseNearTraffic)
{
    // Deltas inside a few buckets: same-tick FIFO ties and priority
    // inversions that insert ahead of a bucket's tail.
    runSideBySide(3000, 16);
}

TEST(EventQueueModel, WindowStraddlingTraffic)
{
    // Deltas up to 1.5 windows: bucket appends, rung parks one or two
    // blocks out and distribution into the buckets.
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
    // priorities.
    constexpr std::size_t kLinks = 3;
    constexpr std::size_t kBudget = 12000;
    const Tick w = Tick(EventQueue::kWindow);
    Mirror m;
    Tick free_at[kLinks] = {};
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
            m.schedule(link, priority);
        } else {
            link = now + 4 * w + Tick(mix(r + 2) % (4 * w));
            m.schedule(now + 1 + Tick(mix(r + 3) % 64), priority);
            if (r % 4 == 0)
                m.schedule(link, priority);
        }
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
    // no priority undercut takes the insertion walk that would hide a
    // misordering); tick t + 1 mixes priorities.
    Mirror m;
    const Tick t = 20 * Mirror::kBlock + 10;
    for (int i = 0; i < 40; ++i) {
        m.schedule(t, 0);
        m.schedule(t + 1, int(mix(std::uint64_t(i)) % 3) - 1);
    }
    m.runUntil(t - (EventQueue::kWindow - 100));
    ASSERT_LT(t - m.eq.now(), Tick(EventQueue::kWindow));
    ASSERT_GT(t >> EventQueue::kBlockBits,
              (m.eq.now() >> EventQueue::kBlockBits) + 1);
    for (int i = 0; i < 20; ++i) {
        m.schedule(t, 0);
        m.schedule(t + 1, int(mix(std::uint64_t(i) + 50) % 3) - 1);
    }
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
    }
    m.drain();
}

TEST(EventQueueModel, FarHeapRefillsRung)
{
    // Deltas a few blocks either side of the rung horizon: parks in
    // the far heap that refill the rung as it advances, and leaps
    // across empty stretches.
    runSideBySide(2500, Tick(EventQueue::kRungBlocks + 6)
                            << EventQueue::kBlockBits);
}

TEST(EventQueueModel, LatePriorityTenReschedulesIntoItsTick)
{
    // Sys::streamPhaseDone's pattern: a priority-10 event at tick t
    // schedules priority-0 and priority-10 events into t while entries
    // of both priorities are still pending there. A priority-0 arrival
    // undercuts the tail and is inserted after the pending priority-0
    // entries, ahead of every pending priority-10 one.
    Mirror m;
    const Tick t = 300;
    std::vector<int> priority_of;
    auto schedule = [&m, &priority_of, t](int priority) {
        m.schedule(t, priority);
        priority_of.push_back(priority);
    };
    for (int i = 0; i < 4; ++i) {
        schedule(10);
        schedule(0);
    }
    for (int round = 0; round < 6; ++round) {
        // Fire through the next priority-10 event, as its callback.
        int tag = m.step();
        while (tag >= 0 && priority_of[std::size_t(tag)] != 10)
            tag = m.step();
        ASSERT_GE(tag, 0);
        ASSERT_EQ(m.eq.now(), t);
        for (int i = 0; i < 3; ++i) {
            schedule(0);
            schedule(10);
            schedule(0);
        }
    }
    m.drain();
}

TEST(EventQueueModel, LeapTakesRungEarliestNotFirstAppended)
{
    // Nothing bucketed, one rung block holding entries appended out of
    // tick order: the leap must go to the block's earliest tick, not
    // to its first entry. The same rung list is then reused for a
    // block kRungBlocks later, whose earliest tick starts afresh.
    Mirror m;
    const Tick base = 10 * Mirror::kBlock;
    for (const Tick d : {Tick(700), Tick(90), Tick(1500), Tick(5), Tick(90)})
        m.schedule(base + d, int(d % 3) - 1);
    ASSERT_EQ(m.eq.rungSize(), 5u);
    EXPECT_EQ(m.step(), 3);
    EXPECT_EQ(m.eq.now(), base + 5);
    m.drain();

    const Tick later =
        base + Tick(EventQueue::kRungBlocks) * Mirror::kBlock;
    m.runUntil(later - Tick(EventQueue::kRungBlocks - 2) * Mirror::kBlock);
    for (const Tick d : {Tick(2000), Tick(40), Tick(600)})
        m.schedule(later + d, 0);
    ASSERT_EQ(m.eq.rungSize(), 3u);
    m.step();
    EXPECT_EQ(m.eq.now(), later + 40);
    m.drain();
}

TEST(EventQueueModel, EqualTickRefillsFarRungNearMixedPriorities)
{
    // One tick t collects mixed-priority events in every tier: first
    // past the rung horizon (far heap), then, once t's block has
    // entered the horizon, in the rung behind the refilled heap refs,
    // and finally in t's bucket once the block is distributed. Each
    // refill must keep the whole tick in (priority, seq) order.
    Mirror m;
    const Tick blk = Mirror::kBlock;
    const Tick t = Tick(EventQueue::kRungBlocks + 20) * blk + 33;
    int k = 0;
    auto burst = [&m, &k, t](int n) {
        for (int i = 0; i < n; ++i, ++k)
            m.schedule(t, int(mix(std::uint64_t(k) + 300) % 4) * 5 - 5);
    };
    burst(12);
    ASSERT_EQ(m.eq.farHeapSize(), 12u);
    m.runUntil(t - Tick(EventQueue::kRungBlocks - 2) * blk);
    ASSERT_EQ(m.eq.farHeapSize(), 0u);
    ASSERT_EQ(m.eq.rungSize(), 12u);
    burst(12);
    ASSERT_EQ(m.eq.rungSize(), 24u);
    m.runUntil(t - blk / 2);
    ASSERT_EQ(m.eq.rungSize(), 0u);
    burst(12);
    m.schedule(t - 1, 0);
    m.step();
    burst(12);
    m.drain();
}

TEST(EventQueueModel, RungRunHeadUndercutsBucketTail)
{
    // One parked block holds three runs: tick t at priority 10, tick
    // t + 1, then tick t at priority 0. When the block is distributed
    // the first run fills t's bucket, so the third run's head undercuts
    // the bucket tail and must be placed entry by entry ahead of it,
    // not spliced behind it.
    Mirror m;
    const Tick t = 12 * Mirror::kBlock + 100;
    for (int i = 0; i < 3; ++i)
        m.schedule(t, 10);
    m.schedule(t + 1, 0);
    for (int i = 0; i < 3; ++i)
        m.schedule(t, 0);
    m.schedule(t, 10);
    ASSERT_EQ(m.eq.rungSize(), 8u);
    m.drain();
}

TEST(EventQueueModel, RungRunsOfOneTickSplitByAnother)
{
    // Two runs of tick t in one block, split by a run of tick t + 5:
    // the later run of t splices behind the earlier one (equal
    // priority), and the t + 5 run must not be absorbed into either.
    Mirror m;
    const Tick t = 9 * Mirror::kBlock + 7;
    for (int i = 0; i < 4; ++i)
        m.schedule(t, 0);
    for (int i = 0; i < 2; ++i)
        m.schedule(t + 5, 0);
    for (int i = 0; i < 3; ++i)
        m.schedule(t, 0);
    ASSERT_EQ(m.eq.rungSize(), 9u);
    EXPECT_EQ(m.step(), 0);
    EXPECT_EQ(m.eq.now(), t);
    m.drain();
}

TEST(EventQueueModel, FarRefillExtendsTheTailRun)
{
    // Far-heap refs of one tick refill the rung as one run in
    // (priority, seq) order; a direct schedule at that tick that does
    // not undercut the last refilled priority extends that run, one
    // that does starts a new run and takes the fallback on
    // distribution.
    Mirror m;
    const Tick blk = Mirror::kBlock;
    const Tick t = Tick(EventQueue::kRungBlocks + 10) * blk + 21;
    for (const int priority : {5, -1, 0, 5, -1})
        m.schedule(t, priority);
    m.schedule(t + 3, 0);
    ASSERT_EQ(m.eq.farHeapSize(), 6u);
    m.runUntil(t - Tick(EventQueue::kRungBlocks - 2) * blk);
    ASSERT_EQ(m.eq.farHeapSize(), 0u);
    ASSERT_EQ(m.eq.rungSize(), 6u);
    m.schedule(t + 3, 0); // extends the t + 3 run refilled last
    m.schedule(t, 5);     // a new run of t behind it
    m.schedule(t, 7);
    m.schedule(t, 2);     // undercuts: a new run
    m.drain();
}

TEST(EventQueueModel, RungRunPriorityExtendsUpNotDown)
{
    // Priority 0 then 10 at one parked tick is one run; 10 then 0
    // starts a new run, whose priority-0 entry fires ahead of the
    // pending priority-10 one.
    Mirror m;
    const Tick t = 30 * Mirror::kBlock + 500;
    for (const int priority : {0, 10, 10, 0, 10, 0, 0})
        m.schedule(t, priority);
    ASSERT_EQ(m.eq.rungSize(), 7u);
    m.drain();
}

} // namespace
} // namespace astra

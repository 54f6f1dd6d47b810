// astra-lint: hot-path (every event schedule/retire crosses this TU)
// astra-lint: allocator-tu (the slab below is the amortization point:
// growSlab() grabs whole chunks so the per-event path never mallocs)
#include "common/event_queue.hh"

#include <algorithm>
#include <bit>

namespace astra
{

void
EventQueue::rejectPast(Tick when, int priority) const
{
    // A past-dated event would fire "now" but after everything already
    // run this tick, silently corrupting the non-decreasing-time
    // ordering every layer assumes. This is a caller bug expressed
    // through user-facing APIs (e.g. a negative delay computed from a
    // bad config), so fail loudly with the offending values.
    ASTRA_CHECK(when >= _now,
                "event scheduled in the past (when=%llu now=%llu "
                "delta=-%llu priority=%d): delays must be non-negative",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(_now),
                static_cast<unsigned long long>(
                    when < _now ? _now - when : 0),
                priority);
}

void
EventQueue::growSlab()
{
    // Slot indices are 32-bit and kNoSlot is reserved; 2^32
    // concurrently pending events would mean something far worse is
    // wrong anyway.
    ASTRA_CHECK(_slotCount < kNoSlot - kChunkSize,
                "event slab exhausted (%u slots live)", _slotCount);
    _chunks.push_back(std::make_unique<Entry[]>(kChunkSize));
    // Thread the chunk onto the (empty) free list, lowest slot first.
    Entry *chunk = _chunks.back().get();
    for (std::uint32_t i = 0; i + 1 < kChunkSize; ++i)
        chunk[i].next = _slotCount + i + 1;
    chunk[kChunkSize - 1].next = _freeHead;
    _freeHead = _slotCount;
    _slotCount += static_cast<std::uint32_t>(kChunkSize);
}

void
EventQueue::enqueue(std::uint32_t slot, Entry &e)
{
    ++_size;
    const Tick blk = e.when >> kBlockBits;
    if (blk <= _distBlock) {
        // Near future: link into the tick's bucket. The cursor can sit
        // ahead of now() after runUntil() stopped short; a schedule
        // behind it must pull it back (the skipped buckets are empty,
        // so rescanning is exact).
        insertNear(slot, e);
        ++_nearLive;
        if (e.when < _cursorTick)
            _cursorTick = e.when;
    } else if (blk <= _distBlock + kRungBlocks) {
        appendRung(slot, e);
    } else {
        _far.push_back(FarRef{e.when, e.seq, slot, e.priority});
        std::push_heap(_far.begin(), _far.end(), FarRef::later);
    }
}

void
EventQueue::insertByPriority(List &b, std::uint32_t slot, Entry &e)
{
    // The tail's priority is above e's, so the walk stops at or before
    // the tail: e goes after the last entry of equal or lower priority.
    std::uint32_t *link = &b.head;
    while (entryAt(*link).priority <= e.priority)
        link = &entryAt(*link).next;
    e.next = *link;
    *link = slot;
}

void
EventQueue::appendRung(std::uint32_t slot, Entry &e)
{
    const std::size_t i = rungIndex(e.when >> kBlockBits);
    List &list = _rung[i];
    ++_rungCount[i];
    e.next = kNoSlot;
    if (list.head == kNoSlot) {
        list.head = slot;
        _rungEarliest[i] = e.when;
        _rungMask |= std::uint64_t(1) << i;
    } else {
        Entry &run = entryAt(list.tail);
        Entry &last = entryAt(run.runTail);
        if (run.when == e.when && last.priority <= e.priority) {
            last.next = slot;
            run.runTail = slot;
            return;
        }
        run.runNext = slot;
        _rungEarliest[i] = std::min(_rungEarliest[i], e.when);
    }
    e.runNext = kNoSlot;
    e.runTail = slot;
    list.tail = slot;
}

void
EventQueue::spliceRun(std::uint32_t head, Entry &h)
{
    const std::size_t idx = static_cast<std::size_t>(h.when & kWindowMask);
    List &b = _buckets[idx];
    if (b.head == kNoSlot) {
        b.head = head;
        markBucket(idx);
    } else if (entryAt(b.tail).priority <= h.priority) {
        entryAt(b.tail).next = head;
    } else {
        // The head undercuts the tail (an earlier run of this tick in
        // the same block outranks it): place each entry on its own.
        for (std::uint32_t s = head; s != kNoSlot;) {
            Entry &e = entryAt(s);
            const std::uint32_t next = e.next;
            insertNear(s, e);
            s = next;
        }
        return;
    }
    b.tail = h.runTail;
}

std::size_t
EventQueue::findMarked(std::size_t from) const
{
    if (_bmSummary == 0)
        return kWindow;
    constexpr std::size_t kWords = kWindow / 64;
    const std::size_t w0 = from >> 6;
    const std::size_t b0 = from & 63;
    const std::uint64_t head = _bmWords[w0] >> b0;
    if (head != 0)
        return static_cast<std::size_t>(std::countr_zero(head));
    for (std::size_t k = 1; k <= kWords; ++k) {
        const std::size_t wi = (w0 + k) & (kWords - 1);
        std::uint64_t word = _bmWords[wi];
        if (wi == w0) // wrapped to the start word: only bits below from
            word &= (std::uint64_t(1) << b0) - 1;
        if (word != 0) {
            return 64 * k - b0 +
                   static_cast<std::size_t>(std::countr_zero(word));
        }
    }
    return kWindow;
}

void
EventQueue::advanceTo(Tick dist)
{
    // Leaving the rung: each list is in append order, which spliceRun()
    // turns into (priority, seq) order per tick, a run at a time. Only
    // blocks dist - 1 and dist can hold entries (the caller's
    // contract), and those two never share a bucket index.
    const Tick last = std::min(dist, _distBlock + kRungBlocks);
    for (Tick blk = _distBlock + 1; blk <= last; ++blk) {
        const std::size_t i = rungIndex(blk);
        for (std::uint32_t r = _rung[i].head; r != kNoSlot;) {
            Entry &h = entryAt(r);
            const std::uint32_t next = h.runNext;
            ASTRA_DCHECK(h.when >= _now && (h.when >> kBlockBits) + 1 >= dist,
                         "rung event distributed out of order (when=%llu "
                         "now=%llu block=%llu)",
                         static_cast<unsigned long long>(h.when),
                         static_cast<unsigned long long>(_now),
                         static_cast<unsigned long long>(dist));
            spliceRun(r, h);
            r = next;
        }
        _nearLive += _rungCount[i];
        _rungCount[i] = 0;
        _rung[i] = List{};
        _rungMask &= ~(std::uint64_t(1) << i);
    }
    _distBlock = dist;
    _nextBlockStart = dist << kBlockBits;

    // Refill the blocks that entered the horizon. Heap pops arrive in
    // (when, priority, seq) order and precede every later schedule()
    // into those blocks, which is what keeps each list in order.
    const Tick horizon = dist + kRungBlocks;
    while (!_far.empty() && (_far.front().when >> kBlockBits) <= horizon) {
        const FarRef fr = popFar();
        ASTRA_DCHECK(fr.when >= _now,
                     "far event refilling into the past (when=%llu "
                     "now=%llu)",
                     static_cast<unsigned long long>(fr.when),
                     static_cast<unsigned long long>(_now));
        Entry &e = entryAt(fr.slot);
        if ((fr.when >> kBlockBits) <= dist) {
            insertNear(fr.slot, e); // an epoch leap past the rung
            ++_nearLive;
        } else {
            appendRung(fr.slot, e);
        }
    }
}

std::uint32_t
EventQueue::findNext(Tick bound)
{
    if (_nearLive == 0) {
        // Nothing bucketed: the next event is the earliest tick of the
        // first non-empty rung block or, failing that, the far heap's
        // top. Only leap there if the caller will fire it: the leap
        // distributes its block, and buckets are only unambiguous
        // while every bucketed tick is within kWindow of now() — which
        // the immediate fire (advancing now() to the leap target) is
        // what re-establishes.
        Tick target;
        if (_rungMask != 0) {
            const std::size_t first = rungIndex(_distBlock + 1);
            const std::size_t i =
                (first + std::size_t(std::countr_zero(
                             std::rotr(_rungMask, int(first))))) &
                (kRungBlocks - 1);
            target = _rungEarliest[i];
        } else if (!_far.empty()) {
            target = _far.front().when;
        } else {
            return kNoSlot;
        }
        if (target > bound)
            return kNoSlot;
        advanceTo((target >> kBlockBits) + 1);
        _cursorTick = target;
    }
    for (;;) {
        const std::size_t idx = static_cast<std::size_t>(_cursorTick &
                                                         kWindowMask);
        if (_buckets[idx].head != kNoSlot)
            return _buckets[idx].head;
        // Bucket exhausted: advance to the next marked tick inside the
        // window (one exists, since _nearLive > 0).
        clearBucket(idx);
        const std::size_t d = findMarked((idx + 1) & (kWindow - 1));
        ASTRA_DCHECK(d < kWindow, "%zu bucketed event(s) not marked",
                     _nearLive);
        _cursorTick += 1 + Tick(d);
    }
}

void
EventQueue::fireAt(std::uint32_t slot)
{
    Entry &e = entryAt(slot);
    ASTRA_DCHECK(e.when == _cursorTick && e.when >= _now,
                 "ladder returned an out-of-order event (when=%llu "
                 "cursor=%llu now=%llu)",
                 static_cast<unsigned long long>(e.when),
                 static_cast<unsigned long long>(_cursorTick),
                 static_cast<unsigned long long>(_now));
    _buckets[static_cast<std::size_t>(e.when & kWindowMask)].head = e.next;
    --_nearLive;
    --_size;
    _now = e.when;
    if (_now >= _nextBlockStart)
        advanceTo((_now >> kBlockBits) + 1);
    noteFired(e);
    ++_executed;
    // The entry is unlinked before its callback runs and reaches the
    // free list only after it returns, so a re-entrant schedule() can
    // neither see it in its bucket nor be handed its slot.
    e.cb();
    e.cb.reset();
    e.next = _freeHead;
    _freeHead = slot;
}

std::uint64_t
EventQueue::runBounded(Tick until, std::uint64_t max_events)
{
    // The guard loop's primitive: a strict prefix of run()'s firing
    // stream. Stopping leaves _now at the last fired tick — a tripped
    // budget reports where the run actually got to, and a later slice
    // resumes the identical stream.
    std::uint64_t n = 0;
    while (n < max_events) {
        const std::uint32_t slot = findNext(until);
        if (slot == kNoSlot || entryAt(slot).when > until)
            break;
        fireAt(slot);
        ++n;
    }
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    const std::uint64_t n = runBounded(until, UINT64_MAX);
    if (_now < until) {
        _now = until;
        // Ticks in (cursor, now] fired nothing, so their buckets are
        // empty; restart the scan at now.
        if (_cursorTick < _now)
            _cursorTick = _now;
        // Everything <= until fired, so the blocks skipped here hold
        // nothing.
        if (_now >= _nextBlockStart)
            advanceTo((_now >> kBlockBits) + 1);
    }
    return n;
}

void
EventQueue::validateDrained() const
{
    ASTRA_CHECK(_size == 0,
                "event queue drained with %zu live event(s) still "
                "pending at tick %llu",
                _size, static_cast<unsigned long long>(_now));
    std::size_t free_slots = 0;
    for (std::uint32_t s = _freeHead; s != kNoSlot && free_slots <= _slotCount;
         s = entryAt(s).next)
        ++free_slots;
    ASTRA_CHECK(free_slots == _slotCount,
                "event queue drained with %lld slab slot(s) unreclaimed "
                "at tick %llu",
                static_cast<long long>(_slotCount) -
                    static_cast<long long>(free_slots),
                static_cast<unsigned long long>(_now));
    ASTRA_CHECK(_nearLive == 0 && rungSize() == 0 && _rungMask == 0 &&
                    _far.empty(),
                "event queue drained with %zu bucketed, %zu rung and %zu "
                "far-heap entries (block mask %llx) at tick %llu",
                _nearLive, rungSize(), _far.size(),
                static_cast<unsigned long long>(_rungMask),
                static_cast<unsigned long long>(_now));
}

std::size_t
EventQueue::rungSize() const
{
    std::size_t n = 0;
    for (const List &list : _rung) {
        for (std::uint32_t r = list.head; r != kNoSlot;
             r = entryAt(r).runNext) {
            for (std::uint32_t s = r; s != kNoSlot; s = entryAt(s).next)
                ++n;
        }
    }
    return n;
}

} // namespace astra

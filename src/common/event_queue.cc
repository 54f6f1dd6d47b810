// astra-lint: hot-path (every event schedule/retire crosses this TU)
// astra-lint: allocator-tu (the slab below is the amortization point:
// allocSlot() grabs whole chunks so the per-event path never mallocs)
#include "common/event_queue.hh"

#include <algorithm>
#include <bit>

namespace astra
{

EventQueue::EventQueue()
    : _buckets(kWindow),
      _auditOrder(validationAtLeast(ValidateLevel::kFull))
{
}

std::uint32_t
EventQueue::allocSlot()
{
    if (_freeList.empty()) {
        // A slot index must stay addressable in 32 bits next to its
        // generation tag; 2^32 concurrently pending events would mean
        // something far worse is wrong anyway.
        ASTRA_CHECK(_slotCount <= 0xffffffffU - kChunkSize,
                    "event slab exhausted (%u slots live)", _slotCount);
        _chunks.push_back(std::make_unique<Entry[]>(kChunkSize));
        _freeList.reserve(_freeList.capacity() + kChunkSize);
        // Reverse order so the lowest new slot is handed out first.
        for (std::size_t i = kChunkSize; i-- > 0;)
            _freeList.push_back(_slotCount + static_cast<std::uint32_t>(i));
        _slotCount += static_cast<std::uint32_t>(kChunkSize);
    }
    const std::uint32_t slot = _freeList.back();
    _freeList.pop_back();
    return slot;
}

EventId
EventQueue::schedule(Tick when, EventCallback cb, int priority)
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
    const std::uint32_t slot = allocSlot();
    Entry &e = entryAt(slot);
    e.when = when;
    e.seq = _seq++;
    e.priority = priority;
    e.cb = std::move(cb);
    const EventId id = (std::uint64_t(e.gen) << 32) | slot;

    if ((when >> kBlockBits) <= _distBlock) {
        // Near future: append to the tick's bucket. Appends carry
        // strictly increasing seq, so the bucket stays sorted by
        // (priority, seq) unless this priority undercuts the tail.
        // (appendNear() spelled out: the compiler declines to inline
        // it here, and this is the simulator's hottest call.)
        e.region = Region::kNear;
        Bucket &b = bucketAt(when);
        if (b.refs.empty())
            markBucket(static_cast<std::size_t>(when & kWindowMask));
        else if (priority < b.lastPrio)
            b.dirty = true;
        b.refs.push_back(id);
        b.lastPrio = priority;
        ++_nearLive;
        // The cursor can sit ahead of now() after runUntil() stopped
        // short; a schedule behind it must pull it back (the skipped
        // buckets are empty of live refs, so rescanning is exact).
        if (when < _cursorTick) {
            _cursorTick = when;
            _cursorIdx = 0;
        }
    } else {
        park(e, id);
    }
    ++_size;
    return id;
}

void
EventQueue::park(Entry &e, EventId id)
{
    const Tick blk = e.when >> kBlockBits;
    if (blk <= _distBlock + kRungBlocks) {
        e.region = Region::kRung;
        appendRung(blk, id);
        return;
    }
    e.region = Region::kFar;
    _far.push_back(FarRef{e.when, e.seq, slotOf(id), e.gen, e.priority});
    std::push_heap(_far.begin(), _far.end(), FarRef::later);
}

bool
EventQueue::cancel(EventId id)
{
    // An id is cancellable exactly while its generation tag matches
    // the slot's: one probe. The entry (callback included) is
    // reclaimed immediately; only the slot's 8-byte ref stays parked
    // in its bucket, rung list or the far heap, skipped by the
    // mismatch when its position is reached (or purged in bulk, for
    // the far heap).
    const std::uint32_t slot = slotOf(id);
    if (slot >= _slotCount)
        return false;
    Entry &e = entryAt(slot);
    if (e.gen != genOf(id))
        return false;
    const Region region = e.region;
    freeSlot(slot); // recycles the callback and tag, not e.when
    --_size;
    switch (region) {
      case Region::kNear:
        --_nearLive;
        break;
      case Region::kRung: {
        const std::size_t i = rungIndex(e.when >> kBlockBits);
        if (--_rungLive[i] == 0)
            _rungMask &= ~(std::uint64_t(1) << i);
        break;
      }
      case Region::kFar:
        ++_staleFar;
        maybePurgeFar();
        break;
    }
    return true;
}

void
EventQueue::maybePurgeFar()
{
    if (_far.size() < kPurgeMinFar || _staleFar * 2 < _far.size())
        return;
    std::erase_if(_far, [this](const FarRef &fr) {
        return entryAt(fr.slot).gen != fr.gen;
    });
    std::make_heap(_far.begin(), _far.end(), FarRef::later);
    _staleFar = 0;
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
    // Leaving the rung: each list is in append order, so a tick's refs
    // reach their bucket in (priority, seq) order up to priority
    // undercuts, which appendNear() flags. Only blocks dist - 1 and
    // dist can still hold live refs (the caller's contract), and those
    // two never share a bucket index; earlier lists are dropped here,
    // so a cancelled rung ref never outlives its block.
    const Tick last = std::min(dist, _distBlock + kRungBlocks);
    for (Tick blk = _distBlock + 1; blk <= last; ++blk) {
        const std::size_t i = rungIndex(blk);
        for (const Ref r : _rung[i]) {
            Entry &e = entryAt(slotOf(r));
            if (e.gen != genOf(r))
                continue; // cancelled while parked
            ASTRA_DCHECK(e.when >= _now && (e.when >> kBlockBits) + 1 >= dist,
                         "rung event distributed out of order (when=%llu "
                         "now=%llu block=%llu)",
                         static_cast<unsigned long long>(e.when),
                         static_cast<unsigned long long>(_now),
                         static_cast<unsigned long long>(dist));
            e.region = Region::kNear;
            appendNear(e.when, e.priority, r);
        }
        if (_rung[i].capacity() != 0) {
            _rung[i].clear();
            _spareRung.push_back(std::move(_rung[i]));
        }
        _rungLive[i] = 0;
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
        Entry &e = entryAt(fr.slot);
        if (e.gen != fr.gen) {
            --_staleFar; // cancelled while parked: drop the ref here
            continue;
        }
        ASTRA_DCHECK(fr.when >= _now,
                     "far event refilling into the past (when=%llu "
                     "now=%llu)",
                     static_cast<unsigned long long>(fr.when),
                     static_cast<unsigned long long>(_now));
        const Ref r = (std::uint64_t(fr.gen) << 32) | fr.slot;
        const Tick blk = fr.when >> kBlockBits;
        if (blk <= dist) {
            e.region = Region::kNear; // an epoch leap past the rung
            appendNear(fr.when, fr.priority, r);
        } else {
            e.region = Region::kRung;
            appendRung(blk, r);
        }
    }
}

Tick
EventQueue::minRungTick(Tick blk) const
{
    Tick t = kTickInvalid;
    for (const Ref r : _rung[rungIndex(blk)]) {
        const Entry &e = entryAt(slotOf(r));
        if (e.gen == genOf(r))
            t = std::min(t, e.when);
    }
    return t;
}

void
EventQueue::cleanBucket(Bucket &b)
{
    // Drop stale refs from the unfired remainder, then restore
    // (priority, seq) order. Live refs have unique seq, so the order
    // is strict and deterministic; no stable_sort needed.
    const auto first = b.refs.begin() +
                       static_cast<std::ptrdiff_t>(_cursorIdx);
    b.refs.erase(std::remove_if(first, b.refs.end(),
                                [this](Ref r) {
                                    return entryAt(slotOf(r)).gen !=
                                           genOf(r);
                                }),
                 b.refs.end());
    std::sort(b.refs.begin() + static_cast<std::ptrdiff_t>(_cursorIdx),
              b.refs.end(), [this](Ref a, Ref c) {
                  const Entry &ea = entryAt(slotOf(a));
                  const Entry &ec = entryAt(slotOf(c));
                  if (ea.priority != ec.priority)
                      return ea.priority < ec.priority;
                  return ea.seq < ec.seq;
              });
    b.dirty = false;
    if (b.refs.size() > _cursorIdx)
        b.lastPrio = entryAt(slotOf(b.refs.back())).priority;
}

std::uint32_t
EventQueue::findNext(Tick bound)
{
    for (;;) {
        if (_nearLive == 0) {
            // Nothing bucketed: the next event is the earliest live
            // tick of the first live rung block or, failing that, the
            // far heap's top. Only leap there if the caller will fire
            // it: the leap distributes its block, and buckets are only
            // unambiguous while every live one is within kWindow of
            // now() — which the immediate fire (advancing now() to
            // the leap target) is what re-establishes.
            Tick target;
            if (_rungMask != 0) {
                const std::size_t first = rungIndex(_distBlock + 1);
                target = minRungTick(
                    _distBlock + 1 +
                    Tick(std::countr_zero(std::rotr(_rungMask, int(first)))));
            } else {
                while (!_far.empty() &&
                       entryAt(_far.front().slot).gen != _far.front().gen) {
                    popFar();
                    --_staleFar;
                }
                if (_far.empty())
                    return kNoSlot;
                target = _far.front().when;
            }
            if (target > bound)
                return kNoSlot;
            advanceTo((target >> kBlockBits) + 1);
            _cursorTick = target;
            _cursorIdx = 0;
            continue;
        }
        for (;;) {
            Bucket &b = bucketAt(_cursorTick);
            if (b.dirty && _cursorIdx < b.refs.size())
                cleanBucket(b);
            while (_cursorIdx < b.refs.size()) {
                const Ref r = b.refs[_cursorIdx];
                if (entryAt(slotOf(r)).gen == genOf(r))
                    return slotOf(r);
                ++_cursorIdx; // stale (cancelled or recycled): skip
            }
            // Bucket exhausted: reset it (releasing an oversized
            // buffer) and advance to the next marked tick inside the
            // window.
            if (b.refs.capacity() > kBucketKeepRefs)
                b.refs = std::vector<Ref>();
            else
                b.refs.clear();
            b.dirty = false;
            clearBucket(static_cast<std::size_t>(_cursorTick &
                                                 kWindowMask));
            _cursorIdx = 0;
            const std::size_t d = findMarked(static_cast<std::size_t>(
                (_cursorTick + 1) & kWindowMask));
            if (d == kWindow)
                break; // nothing bucketed: rung, far heap or drained
            _cursorTick += 1 + Tick(d);
        }
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
    ++_cursorIdx; // consume the cursor's ref
    --_nearLive;
    --_size;
    _now = e.when;
    if (_now >= _nextBlockStart)
        advanceTo((_now >> kBlockBits) + 1);
    noteFired(e);
    ++_executed;
    // Retire the handle before invoking: cancel() of this event now
    // reports false, and the slot cannot be recycled mid-fire because
    // it only reaches the free list after the callback returns (so
    // re-entrant schedule() calls can never alias it).
    e.gen = nextGen(e.gen);
    e.cb();
    e.cb.reset();
    _freeList.push_back(slot);
}

bool
EventQueue::step()
{
    const std::uint32_t slot = findNext(kTickInvalid);
    if (slot == kNoSlot)
        return false;
    fireAt(slot);
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && step())
        ++n;
    return n;
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
    std::uint64_t n = 0;
    for (;;) {
        const std::uint32_t slot = findNext(until);
        if (slot == kNoSlot || entryAt(slot).when > until)
            break;
        fireAt(slot);
        ++n;
    }
    if (_now < until) {
        _now = until;
        // Ticks in (cursor, now] fired nothing, so their buckets hold
        // at most stale refs; restart the scan at now. With nothing
        // bucketed, the cursor may also sit past now (on an event
        // since cancelled): the blocks distributed below can land
        // behind it, so restart there too.
        if (_cursorTick < _now || _nearLive == 0) {
            _cursorTick = _now;
            _cursorIdx = 0;
        }
        // Everything <= until fired, so the blocks skipped here hold
        // nothing live.
        if (_now >= _nextBlockStart)
            advanceTo((_now >> kBlockBits) + 1);
    }
    return n;
}

void
EventQueue::debugSetFreeSlotGeneration(std::uint32_t slot,
                                       std::uint32_t gen)
{
    ASTRA_CHECK(slot < _slotCount,
                "debugSetFreeSlotGeneration: slot %u out of range (%u "
                "allocated)",
                slot, _slotCount);
    ASTRA_CHECK(std::find(_freeList.begin(), _freeList.end(), slot) !=
                    _freeList.end(),
                "debugSetFreeSlotGeneration: slot %u is live", slot);
    ASTRA_CHECK(gen != 0, "generation 0 is reserved for kEventIdInvalid");
    entryAt(slot).gen = gen;
}

void
EventQueue::validateDrained() const
{
    ASTRA_CHECK(_size == 0,
                "event queue drained with %zu live event(s) still "
                "pending at tick %llu",
                _size, static_cast<unsigned long long>(_now));
    ASTRA_CHECK(_freeList.size() == _slotCount,
                "event queue drained with %zu slab slot(s) unreclaimed "
                "at tick %llu",
                static_cast<std::size_t>(_slotCount) - _freeList.size(),
                static_cast<unsigned long long>(_now));
    // The rung keeps its own live counts; recount them from the refs.
    std::size_t rung_live = 0;
    for (const std::vector<Ref> &list : _rung) {
        for (const Ref r : list)
            rung_live += entryAt(slotOf(r)).gen == genOf(r) ? 1 : 0;
    }
    ASTRA_CHECK(rung_live == 0 && _rungMask == 0,
                "event queue drained with %zu live rung ref(s) (block "
                "mask %llx) at tick %llu",
                rung_live, static_cast<unsigned long long>(_rungMask),
                static_cast<unsigned long long>(_now));
}

std::size_t
EventQueue::rungSize() const
{
    std::size_t n = 0;
    for (const std::vector<Ref> &list : _rung)
        n += list.size();
    return n;
}

} // namespace astra

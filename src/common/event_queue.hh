/**
 * @file
 * The event-driven execution core of ASTRA-SIM (Sec. IV of the paper).
 *
 * ASTRA-SIM maintains its own event queue in the system layer and
 * exposes it to the workload layer to schedule events. All three layers
 * (workload / system / network) share one EventQueue instance. Each
 * simulated platform owns a *private* EventQueue — queues are never
 * shared across simulations, which is what lets the sweep engine run
 * independent simulations on separate threads with no locking here.
 *
 * Ordering guarantees:
 *  - events fire in non-decreasing tick order;
 *  - events scheduled for the same tick fire in ascending priority;
 *  - events with equal (tick, priority) fire in insertion (FIFO) order.
 *
 * The FIFO tiebreak makes simulations bit-for-bit deterministic, which
 * the repeatability tests (and the sweep engine's determinism
 * contract, DESIGN.md) rely on. The retired-event digest (--digest)
 * folds every fired (tick, priority, seq) triple, so any change to the
 * firing stream is detectable; the structures below are pure mechanics
 * and retire the exact same stream as a binary heap would.
 *
 * Hot-path design (docs/performance.md has the full rationale):
 *  - **Ladder buckets, not a heap.** Discrete-event traffic here
 *    schedules overwhelmingly at `now + small latency`, so events land
 *    in a kWindow-tick array of per-tick buckets indexed by `when &
 *    kWindowMask`. schedule() is an append; popping walks the current
 *    tick's bucket with a cursor. No O(log n) sift, no Entry moves.
 *    A two-level bitmap finds the next non-empty tick in O(1).
 *  - **A coarse rung for the middle distance.** Events further out
 *    are common, not rare: an analytical link-busy retry re-parks a
 *    large transfer at the link's free time, 16k-32k ticks ahead. They
 *    append, unsorted, to one of kRungBlocks per-block ref lists
 *    (blocks of half a window); when now() enters a block, the next
 *    block's list is distributed into the buckets, O(1) per ref.
 *  - **Far-future overflow heap.** Only events past the rung horizon
 *    (64 blocks, 32 windows) wait in a binary heap of 32-byte POD refs
 *    — the callback never moves — and refill the rung as it advances.
 *  - **Slab-allocated entries.** Entry objects (callback included)
 *    live in chunked slab storage with a free list; scheduling never
 *    touches the general heap and a fired entry's storage is reused by
 *    the next schedule(). Chunk addresses are stable, so callbacks run
 *    in place — no move out of the container to invoke.
 *  - **Generation-tagged handles, no hash set.** An EventId packs
 *    {generation, slot}; cancel() and liveness checks are one slab
 *    probe comparing generations. The old per-event unordered_set
 *    insert/erase/find pair is gone entirely.
 *  - EventCallback stores small callables inline (48 bytes of
 *    in-object storage) instead of heap-allocating through
 *    std::function — nearly every callback in the simulator captures
 *    only a pointer or two plus an id.
 */

// astra-lint: hot-path (every event schedule/retire crosses this TU)
// astra-lint: allocator-tu (EventCallback's small-buffer storage and
// the entry slab construct objects via placement new; this TU owns
// that machinery — see docs/static-analysis.md.)

#ifndef ASTRA_COMMON_EVENT_QUEUE_HH
#define ASTRA_COMMON_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"
#include "common/validate.hh"

namespace astra
{

/**
 * Move-only callable with small-buffer storage.
 *
 * Drop-in for the scheduling subset of std::function<void()>: any
 * callable whose state fits kInlineBytes and moves without throwing
 * lives inside the EventQueue entry itself; larger callables fall back
 * to one heap allocation, exactly like std::function.
 */
class EventCallback
{
  public:
    /** Inline storage: enough for several pointers/ids per capture. */
    static constexpr std::size_t kInlineBytes = 48;

    EventCallback() noexcept = default;

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, EventCallback> &&
                  std::is_invocable_r_v<void, Fn &>>>
    EventCallback(F &&f) // NOLINT: implicit by design, like std::function
    {
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(f));
            _ops = &kInlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(_buf) =
                new Fn(std::forward<F>(f)); // NOLINT: SBO heap fallback
            _ops = &kHeapOps<Fn>;
        }
    }

    EventCallback(EventCallback &&o) noexcept { moveFrom(o); }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** True when the callable lives in the inline buffer (no heap). */
    bool storedInline() const noexcept { return _ops && _ops->isInline; }

    void operator()() { _ops->invoke(_buf); }

    /** Destroy the stored callable (no-op when already empty). */
    void
    reset() noexcept
    {
        if (_ops) {
            _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    /**
     * True when a callable of type @p Fn is stored inline (no heap
     * allocation per event). Hot-path event functors static_assert it.
     */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool isInline;
    };

    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
        [](void *dst, void *src) noexcept {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) noexcept {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
        /*isInline=*/true,
    };

    template <typename Fn>
    static constexpr Ops kHeapOps = {
        [](void *p) { (**reinterpret_cast<Fn **>(p))(); },
        [](void *dst, void *src) noexcept {
            *reinterpret_cast<Fn **>(dst) = *reinterpret_cast<Fn **>(src);
        },
        [](void *p) noexcept { delete *reinterpret_cast<Fn **>(p); },
        /*isInline=*/false,
    };

    void
    moveFrom(EventCallback &o) noexcept
    {
        _ops = o._ops;
        if (_ops) {
            _ops->relocate(_buf, o._buf);
            o._ops = nullptr;
        }
    }

    const Ops *_ops = nullptr;
    alignas(std::max_align_t) unsigned char _buf[kInlineBytes];
};

/**
 * Generation-tagged handle to a scheduled event: the high 32 bits are
 * the slab slot's generation at schedule time, the low 32 bits the
 * slot index. cancel()/live() compare the tag against the slot's
 * current generation — one array probe, no hashing. Never zero for a
 * real event (generations start at 1), so 0 can mean "no event".
 */
using EventId = std::uint64_t;

/** No-event sentinel (never returned by schedule()). */
inline constexpr EventId kEventIdInvalid = 0;

/**
 * A deterministic discrete-event queue (ladder buckets, rung and far
 * heap over a slab of recycled entries; see the file comment).
 */
class EventQueue
{
  public:
    /** Default priority for ordinary events. */
    static constexpr int kDefaultPriority = 0;

    /**
     * Per-tick bucket array size. Live bucketed events always lie
     * within kWindow ticks of now(), so `when & kWindowMask` never
     * aliases two live ticks.
     */
    static constexpr std::size_t kWindowBits = 12;
    static constexpr std::size_t kWindow = std::size_t(1) << kWindowBits;
    static constexpr Tick kWindowMask = Tick(kWindow) - 1;

    /**
     * Rung block: half a window. An event is bucketed iff its block is
     * at most the *distributed* block, block(now()) + 1; later blocks
     * up to kRungBlocks past it park in the rung, the rest in the far
     * heap. Block-aligned admission keeps the bucketed span under
     * kWindow and never lets a bucketed ref jump ahead of refs still
     * parked in the rung for the same tick.
     */
    static constexpr std::size_t kBlockBits = kWindowBits - 1;
    static constexpr std::size_t kRungBlocks = 64;

    /**
     * The ordering audit (validate::eventOrder per fired event) is
     * armed here when the process-global validation level is `full` at
     * construction time; set the level before building the queue (the
     * CLI does, before any Cluster exists).
     */
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when  Absolute tick; must be >= now(). Scheduling into
     *              the past is a fatal() error — it would silently
     *              violate the non-decreasing-time guarantee.
     * @param cb    Callback to invoke.
     * @param priority  Lower fires first within a tick.
     * @return a generation-tagged handle usable with cancel()/live().
     */
    EventId schedule(Tick when, EventCallback cb,
                     int priority = kDefaultPriority);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    scheduleAfter(Tick delay, EventCallback cb,
                  int priority = kDefaultPriority)
    {
        return schedule(_now + delay, std::move(cb), priority);
    }

    /**
     * Cancel a previously scheduled event. One slab probe: the slot's
     * entry is destroyed and recycled immediately (only an 8-byte
     * stale ref stays behind, skipped by its generation mismatch).
     *
     * @return true if the event was pending and is now cancelled,
     *         false if it already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /**
     * True while @p id is scheduled and not yet fired or cancelled.
     * One generation compare against the slab — no hashing.
     */
    bool
    live(EventId id) const
    {
        const std::uint32_t slot = slotOf(id);
        return slot < _slotCount && entryAt(slot).gen == genOf(id);
    }

    /** Slot index of a handle (for diagnostics/tests). */
    static std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffU);
    }

    /** Generation tag of a handle (for diagnostics/tests). */
    static std::uint32_t
    genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    /** Number of pending (live, non-cancelled) events. */
    std::size_t pendingEvents() const { return _size; }

    /** True when no runnable events remain. */
    bool empty() const { return _size == 0; }

    /**
     * Run events until the queue drains or @p max_events fire.
     *
     * @return the number of events executed.
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /**
     * Run events with tick <= @p until (inclusive). Time advances to
     * @p until even if the queue drains earlier.
     *
     * @return the number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /**
     * Run up to @p max_events events with tick <= @p until (inclusive),
     * for the supervised loop (src/guard): unlike runUntil(), time is
     * NOT advanced past the last fired event when the queue still holds
     * later work — a budget-tripped run reports the tick it genuinely
     * reached. The fired stream is a strict prefix of what run() would
     * fire, so resuming the loop (or never tripping) retires the
     * identical stream and the determinism digest is unchanged.
     *
     * @return the number of events executed (< max_events means
     *         nothing fireable at or before @p until remains).
     */
    std::uint64_t runBounded(Tick until, std::uint64_t max_events);

    /** Execute exactly one event if available; @return true if one ran. */
    bool step();

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executedEvents() const { return _executed; }

    // --- introspection for tests -------------------------------------

    /** Far-heap refs whose event was cancelled but not yet purged. */
    std::size_t staleFarRefs() const { return _staleFar; }

    /** Entries currently parked in the far-future heap (incl. stale). */
    std::size_t farHeapSize() const { return _far.size(); }

    /** Refs currently parked in the rung (incl. stale). */
    std::size_t rungSize() const;

    /** Slab slots ever allocated (high-water mark of pending events). */
    std::size_t allocatedSlots() const { return _slotCount; }

    /**
     * Bytes of entry-slab storage currently allocated (chunk payloads;
     * the dominant memory consumer of a runaway schedule loop). What
     * the max-slab-bytes run budget is checked against.
     */
    std::size_t
    slabBytes() const
    {
        return _chunks.size() * kChunkSize * sizeof(Entry);
    }

    /**
     * Test hook for generation wraparound: retag a *free* slot so the
     * next event allocated into it starts at @p gen. Fatal if the slot
     * is live or out of range.
     */
    void debugSetFreeSlotGeneration(std::uint32_t slot,
                                    std::uint32_t gen);

    // --- integrity layer (docs/validation.md) -------------------------

    /**
     * Start folding every retired event's (tick, priority, seq) into
     * an FNV-1a determinism digest. Observer-only: enabling it never
     * changes simulated results, only makes them attributable.
     */
    void enableDigest() { _digestOn = true; }

    /** True when the determinism digest is being accumulated. */
    bool digestEnabled() const { return _digestOn; }

    /** The retired-event-stream digest accumulated so far. */
    std::uint64_t digest() const { return _digest.value(); }

    /** Force the per-event ordering audit on/off (tests). */
    void setOrderAudit(bool on) { _auditOrder = on; }

    /**
     * Drain-time checker: after run() returns, no live events may
     * remain (in the buckets, the rung or the far heap) and every
     * entry slot must be back on the free list. Raises an ASTRA_CHECK
     * diagnostic otherwise.
     */
    void validateDrained() const;

  private:
    /** Where an entry's pending ref currently lives. */
    enum class Region : std::uint8_t { kNear, kRung, kFar };

    /**
     * One slab slot. `gen` is the slot's *current* generation: equal
     * to a ref's tag iff that ref's event is live. Bumped (skipping 0)
     * every time the slot is freed, which is what invalidates every
     * outstanding handle and bucket/heap ref in O(1).
     */
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        int priority = 0;
        std::uint32_t gen = 1;
        Region region = Region::kNear;
        EventCallback cb;
    };

    /** Slab granularity: chunk addresses are stable forever. */
    static constexpr std::size_t kChunkBits = 8;
    static constexpr std::size_t kChunkSize = std::size_t(1) << kChunkBits;
    static constexpr std::size_t kChunkMask = kChunkSize - 1;

    /** Far-heap purge threshold (entries; below this, skipping wins). */
    static constexpr std::size_t kPurgeMinFar = 64;

    /** An 8-byte bucket ref: {generation, slot} packed like EventId. */
    using Ref = std::uint64_t;

    /**
     * One tick's pending events, in append order. `lastPrio` is the
     * priority of the last ref appended; `dirty` is set when an append
     * undercut it, breaking the (priority, seq) sort order, and
     * triggers one cleanup pass when the tick fires. Priority alone
     * decides: a tick's refs arrive as the far heap's pops (sorted),
     * then rung appends and schedule() calls (ascending seq).
     */
    struct Bucket
    {
        std::vector<Ref> refs;
        int lastPrio = 0;
        bool dirty = false;
    };

    /**
     * Largest ref buffer (8 KiB) an exhausted bucket keeps for reuse.
     * A burst past it (thousands of link-busy retries at one free
     * tick) would otherwise pin its high-water buffer in one of the
     * kWindow buckets for the rest of the run; garnet-lite's buckets
     * stay under it.
     */
    static constexpr std::size_t kBucketKeepRefs = 1024;

    /** Far-heap element: POD ref, ordered by (when, priority, seq). */
    struct FarRef
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
        int priority;

        /** True when @p a fires after @p o: the min-heap order for
         *  the std::*_heap helpers. */
        static bool
        later(const FarRef &a, const FarRef &o)
        {
            if (a.when != o.when)
                return a.when > o.when;
            if (a.priority != o.priority)
                return a.priority > o.priority;
            return a.seq > o.seq;
        }
    };

    Entry &
    entryAt(std::uint32_t slot)
    {
        return _chunks[slot >> kChunkBits][slot & kChunkMask];
    }

    const Entry &
    entryAt(std::uint32_t slot) const
    {
        return _chunks[slot >> kChunkBits][slot & kChunkMask];
    }

    Bucket &
    bucketAt(Tick when)
    {
        return _buckets[static_cast<std::size_t>(when & kWindowMask)];
    }

    /**
     * Append @p r (an event at @p when) to its tick's bucket. The
     * caller has checked the block is distributed and, where the ref
     * could land behind the scan cursor, pulls the cursor back.
     */
    void
    appendNear(Tick when, int priority, Ref r)
    {
        Bucket &b = bucketAt(when);
        if (b.refs.empty())
            markBucket(static_cast<std::size_t>(when & kWindowMask));
        else if (priority < b.lastPrio)
            b.dirty = true;
        b.refs.push_back(r);
        b.lastPrio = priority;
        ++_nearLive;
    }

    /** Next generation for a freed slot (never 0, so ids stay valid). */
    static std::uint32_t
    nextGen(std::uint32_t gen)
    {
        ++gen;
        return gen == 0 ? 1 : gen;
    }

    /** Take a free slot, growing the slab by one chunk when dry. */
    std::uint32_t allocSlot();

    /** Recycle @p slot: destroy its callback and retag the handle. */
    void
    freeSlot(std::uint32_t slot)
    {
        Entry &e = entryAt(slot);
        e.cb.reset();
        e.gen = nextGen(e.gen);
        _freeList.push_back(slot);
    }

    // Bitmap over the kWindow buckets (two levels: one summary word,
    // kWindow/64 leaf words), tracking which buckets hold refs.
    void
    markBucket(std::size_t idx)
    {
        _bmWords[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        _bmSummary |= std::uint64_t(1) << (idx >> 6);
    }

    void
    clearBucket(std::size_t idx)
    {
        _bmWords[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        if (_bmWords[idx >> 6] == 0)
            _bmSummary &= ~(std::uint64_t(1) << (idx >> 6));
    }

    /**
     * Circular-scan the bitmap for the first marked bucket at or after
     * window index @p from; @return its distance (0..kWindow-1), or
     * kWindow when every bucket is empty.
     */
    std::size_t findMarked(std::size_t from) const;

    /** Rung list of block @p blk (valid for the kRungBlocks blocks
     *  past the distributed one). */
    static std::size_t
    rungIndex(Tick blk)
    {
        return static_cast<std::size_t>(blk & (kRungBlocks - 1));
    }

    /** Park @p r (an event in block @p blk) in its rung list. */
    void
    appendRung(Tick blk, Ref r)
    {
        const std::size_t i = rungIndex(blk);
        std::vector<Ref> &list = _rung[i];
        if (list.capacity() == 0 && !_spareRung.empty()) {
            list = std::move(_spareRung.back());
            _spareRung.pop_back();
        }
        list.push_back(r);
        if (_rungLive[i]++ == 0)
            _rungMask |= std::uint64_t(1) << i;
    }

    /** schedule()'s slow path: the rung, or the far heap past it. */
    void park(Entry &e, EventId id);

    /** Remove and return the far heap's earliest ref. */
    FarRef
    popFar()
    {
        std::pop_heap(_far.begin(), _far.end(), FarRef::later);
        const FarRef fr = _far.back();
        _far.pop_back();
        return fr;
    }

    /**
     * Make @p dist the distributed block: the rung lists of the blocks
     * in between move into the buckets (stale refs are dropped), then
     * the far heap refills the blocks that entered the rung horizon.
     * Every block below @p dist - 1 must hold nothing live.
     */
    void advanceTo(Tick dist);

    /** Earliest live tick parked in rung block @p blk. */
    Tick minRungTick(Tick blk) const;

    /** Compact the far heap when stale refs dominate it. */
    void maybePurgeFar();

    /**
     * Position the cursor on the next live ref in firing order.
     * @param bound  Highest tick the caller may fire. When nothing is
     *        bucketed, the queue must NOT leap to the next parked
     *        event unless that event is fireable (<= bound):
     *        committing the leap distributes its block while now()
     *        stays behind, and a later schedule() admitted against
     *        that block could land kWindow+ ticks ahead of now() and
     *        alias a bucket index (ticks are bucketed modulo kWindow).
     * @return the live ref's slot, or kNoSlot when nothing <= bound
     *         remains (rung or far events may still be parked).
     */
    static constexpr std::uint32_t kNoSlot = 0xffffffffU;
    std::uint32_t findNext(Tick bound);

    /** Drop stale refs and restore (priority, seq) order from the
     *  cursor onward in @p b. */
    void cleanBucket(Bucket &b);

    /** Fire the entry the cursor points at (advances the cursor). */
    void fireAt(std::uint32_t slot);

    /**
     * Bookkeeping for the integrity layer, called once per fired
     * event: the ordering audit (level `full`) and the determinism
     * digest. Two branch tests on the fast path when both are off.
     */
    void
    noteFired(const Entry &e)
    {
        if (_auditOrder) {
            if (_firedAny) {
                validate::eventOrder(_lastWhen, _lastPrio, _lastSeq,
                                     e.when, e.priority, e.seq);
            }
            _firedAny = true;
            _lastWhen = e.when;
            _lastPrio = e.priority;
            _lastSeq = e.seq;
        }
        if (_digestOn) {
            _digest.mix(e.when);
            _digest.mix(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(e.priority)));
            _digest.mix(e.seq);
        }
    }

    // Entry slab.
    std::vector<std::unique_ptr<Entry[]>> _chunks;
    std::vector<std::uint32_t> _freeList;
    std::uint32_t _slotCount = 0;

    // Ladder: per-tick buckets + occupancy bitmap.
    std::vector<Bucket> _buckets;
    std::uint64_t _bmSummary = 0;
    std::uint64_t _bmWords[kWindow / 64] = {};
    std::size_t _nearLive = 0; //!< live (non-cancelled) bucket refs

    // Scan cursor: next tick to examine and position within its
    // bucket. Invariant outside pops: _now <= _cursorTick <= every
    // live bucketed tick (stale refs may linger anywhere).
    Tick _cursorTick = 0;
    std::size_t _cursorIdx = 0;

    // Distributed block: block(_now) + 1, except between an epoch leap
    // and the fire it was taken for. _nextBlockStart is its first
    // tick, so fireAt() spots a block change with one compare.
    Tick _distBlock = 1;
    Tick _nextBlockStart = Tick(1) << kBlockBits;

    // Far-future overflow heap: only blocks past the rung horizon.
    std::vector<FarRef> _far; //!< binary min-heap (std::*_heap helpers)
    std::size_t _staleFar = 0; //!< cancelled refs still in _far

    std::size_t _size = 0; //!< live events across all three tiers
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;

    // Integrity layer (see noteFired).
    bool _auditOrder;
    bool _digestOn = false;
    bool _firedAny = false;
    Tick _lastWhen = 0;
    int _lastPrio = 0;
    std::uint64_t _lastSeq = 0;
    Fnv1aDigest _digest;

    // Rung: unsorted ref lists for blocks (_distBlock, _distBlock +
    // kRungBlocks], list rungIndex(block), each in append order. Last,
    // so it stays off the cache lines every event touches.
    std::vector<Ref> _rung[kRungBlocks];
    std::uint32_t _rungLive[kRungBlocks] = {}; //!< live refs per list
    std::uint64_t _rungMask = 0; //!< bit i set while list i has live refs
    // Buffers of distributed lists, handed to the next list to fill:
    // only a handful of blocks fill at once, so pooling keeps the
    // rung's memory near that handful's, not kRungBlocks high-water
    // marks.
    std::vector<std::vector<Ref>> _spareRung;
};

} // namespace astra

#endif // ASTRA_COMMON_EVENT_QUEUE_HH

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
 *    in a kWindow-tick array of per-tick lists indexed by `when &
 *    kWindowMask`. Each list is an intrusive singly-linked FIFO
 *    threaded through the slab entries, kept in (priority, seq) order:
 *    schedule() links at the tail, popping unlinks the head. No
 *    O(log n) sift, no Entry moves, no per-bucket buffer. A two-level
 *    bitmap finds the next non-empty tick in O(1).
 *  - **A coarse rung for the middle distance.** Events further out
 *    are common, not rare: an analytical link-busy retry re-parks a
 *    large transfer at the link's free time, 16k-32k ticks ahead. They
 *    link, unsorted, into one of kRungBlocks per-block lists (blocks
 *    of half a window) that remember their earliest tick. Each list is
 *    a list of *runs*: consecutive appends on one tick with
 *    non-decreasing priority, such as every waiter of one link parking
 *    at its free tick. When now() enters a block, the next block's
 *    runs are distributed into the buckets, each spliced whole in O(1)
 *    unless its head undercuts the bucket tail's priority.
 *  - **Far-future overflow heap.** Only events past the rung horizon
 *    (64 blocks, 32 windows) wait in a binary heap of 24-byte POD refs
 *    — the callback never moves — and refill the rung as it advances.
 *  - **Slab-allocated entries.** Entry objects (callback included)
 *    live in chunked slab storage whose free list runs through the
 *    same link field; schedule() constructs the callable in place and
 *    never touches the general heap. Chunk addresses are stable, so
 *    callbacks run in place — no move out of the container to invoke.
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
        emplace(std::forward<F>(f));
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
     * Store @p f, constructed in place; this callback must be empty.
     * An EventCallback argument is moved in (it must be an rvalue).
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, EventCallback>) {
            *this = std::forward<F>(f);
        } else if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(f));
            _ops = &kInlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(_buf) =
                new Fn(std::forward<F>(f)); // NOLINT: SBO heap fallback
            _ops = &kHeapOps<Fn>;
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
     * kWindow and never lets a bucketed entry jump ahead of entries
     * still parked in the rung for the same tick.
     */
    static constexpr std::size_t kBlockBits = kWindowBits - 1;
    static constexpr std::size_t kRungBlocks = 64;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when. The callable is
     * constructed in its slab entry.
     *
     * @param when  Absolute tick; must be >= now(). Scheduling into
     *              the past is a fatal() error — it would silently
     *              violate the non-decreasing-time guarantee.
     * @param cb    Callback to invoke (any void() callable, or an
     *              EventCallback rvalue).
     * @param priority  Lower fires first within a tick.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb, int priority = kDefaultPriority)
    {
        if (when < _now) [[unlikely]]
            rejectPast(when, priority);
        if (_freeHead == kNoSlot) [[unlikely]]
            growSlab();
        const std::uint32_t slot = _freeHead;
        Entry &e = entryAt(slot);
        e.cb.emplace(std::forward<F>(cb));
        _freeHead = e.next;
        e.when = when;
        e.seq = _seq++;
        e.priority = priority;
        enqueue(slot, e);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&cb, int priority = kDefaultPriority)
    {
        schedule(_now + delay, std::forward<F>(cb), priority);
    }

    /** Number of pending events. */
    std::size_t pendingEvents() const { return _size; }

    /** True when no runnable events remain. */
    bool empty() const { return _size == 0; }

    /**
     * Run events until the queue drains or @p max_events fire.
     *
     * @return the number of events executed.
     */
    std::uint64_t
    run(std::uint64_t max_events = UINT64_MAX)
    {
        return runBounded(kTickInvalid, max_events);
    }

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
    bool step() { return runBounded(kTickInvalid, 1) == 1; }

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executedEvents() const { return _executed; }

    // --- introspection for tests -------------------------------------

    /** Entries currently parked in the far-future heap. */
    std::size_t farHeapSize() const { return _far.size(); }

    /** Entries currently parked in the rung. */
    std::size_t rungSize() const;

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

    // --- integrity layer (docs/validation.md) -------------------------

    /**
     * Start folding every retired event's (tick, priority, seq) into
     * an FNV-1a determinism digest. Observer-only: enabling it never
     * changes simulated results, only makes them attributable.
     */
    void enableDigest() { _digestOn = true; }

    /** The retired-event-stream digest accumulated so far. */
    std::uint64_t digest() const { return _digest.value(); }

    /** Force the per-event ordering audit on/off (tests). */
    void setOrderAudit(bool on) { _auditOrder = on; }

    /**
     * Drain-time checker: after run() returns, no events may remain
     * (in the buckets, the rung or the far heap) and every entry slot
     * must be back on the free list. Raises an ASTRA_CHECK diagnostic
     * otherwise.
     */
    void validateDrained() const;

  private:
    /** Null slot index: the end of a list (and "no event" for
     *  findNext()). */
    static constexpr std::uint32_t kNoSlot = 0xffffffffU;

    /**
     * One slab slot. `next` links the entry into its bucket list, its
     * rung run or, while free, the free list; a far-heap entry is
     * reached through its FarRef instead. `runNext` and `runTail` are
     * meaningful on a rung run's head only (see appendRung()); they
     * fill the padding in front of the callback.
     */
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        int priority = 0;
        std::uint32_t next = kNoSlot;
        std::uint32_t runNext = kNoSlot; //!< head of the next run
        std::uint32_t runTail = kNoSlot; //!< this run's last entry
        EventCallback cb;
    };
    static_assert(sizeof(Entry) == 96, "rung run links must fit the "
                                       "padding: slab bytes are a metric");

    /**
     * Slab granularity: chunk addresses are stable forever. A 96 KiB
     * chunk also keeps a teardown freeing at least one block past
     * glibc's 64 KiB fastbin-consolidation threshold, which is where
     * the previous simulation's small blocks get consolidated (see
     * docs/performance.md).
     */
    static constexpr std::size_t kChunkBits = 10;
    static constexpr std::size_t kChunkSize = std::size_t(1) << kChunkBits;
    static constexpr std::size_t kChunkMask = kChunkSize - 1;

    /** An intrusive singly-linked list of slots, head to tail. */
    struct List
    {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
    };

    /** Far-heap element: POD ref, ordered by (when, priority, seq). */
    struct FarRef
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
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

    /** schedule()'s past-event diagnostic (always fatal). */
    void rejectPast(Tick when, int priority) const;

    /** Grow the slab by one chunk, threading it onto the free list. */
    void growSlab();

    /** Link the filled entry @p e at @p slot into its tier. */
    void enqueue(std::uint32_t slot, Entry &e);

    /**
     * Link @p e (at @p slot) into its tick's bucket, in (priority, seq)
     * order. Every caller links entries in that order except for
     * priority: either @p e carries the largest seq of the list (a
     * schedule(), or a rung entry behind its block's far-heap refs), or
     * it is the next of a far-heap run already in order. So an entry
     * that does not undercut the tail's priority goes to the tail, and
     * one that does goes after the last entry of equal or lower
     * priority (insertByPriority). The caller has checked the block is
     * distributed and, where the entry could land behind the scan
     * cursor, pulls the cursor back. The caller also counts the entry
     * in _nearLive (a whole rung block at once).
     */
    void
    insertNear(std::uint32_t slot, Entry &e)
    {
        const std::size_t idx = static_cast<std::size_t>(e.when & kWindowMask);
        List &b = _buckets[idx];
        e.next = kNoSlot;
        if (b.head == kNoSlot) {
            b.head = slot;
            b.tail = slot;
            markBucket(idx);
        } else if (entryAt(b.tail).priority <= e.priority) {
            entryAt(b.tail).next = slot;
            b.tail = slot;
        } else {
            insertByPriority(b, slot, e);
        }
    }

    /** insertNear()'s priority-undercut path: walk from the head. */
    void insertByPriority(List &b, std::uint32_t slot, Entry &e);

    // Bitmap over the kWindow buckets (two levels: one summary word,
    // kWindow/64 leaf words). A set bit may mark an emptied bucket;
    // findNext() clears it when the scan reaches it.
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

    /**
     * Park @p e (at @p slot) at the tail of its block's rung list:
     * extend the last run when @p e has its tick and does not undercut
     * its tail's priority, else start a new run.
     */
    void appendRung(std::uint32_t slot, Entry &e);

    /**
     * Move the rung run headed by @p h (at @p head) into its tick's
     * bucket: one splice when the bucket is empty or its tail does not
     * outrank the head, else insertNear() entry by entry. Either way
     * the bucket ends as if each entry had been inserted in turn.
     */
    void spliceRun(std::uint32_t head, Entry &h);

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
     * in between move into the buckets, then the far heap refills the
     * blocks that entered the rung horizon. Every block below
     * @p dist - 1 must hold nothing.
     */
    void advanceTo(Tick dist);

    /**
     * The slot of the next event in firing order (the head of the
     * cursor's bucket).
     * @param bound  Highest tick the caller may fire. When nothing is
     *        bucketed, the queue must NOT leap to the next parked
     *        event unless that event is fireable (<= bound):
     *        committing the leap distributes its block while now()
     *        stays behind, and a later schedule() admitted against
     *        that block could land kWindow+ ticks ahead of now() and
     *        alias a bucket index (ticks are bucketed modulo kWindow).
     * @return the slot, or kNoSlot when nothing <= bound remains (rung
     *         or far events may still be parked).
     */
    std::uint32_t findNext(Tick bound);

    /** Unlink and fire the head of the cursor's bucket, @p slot. */
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

    // Entry slab; free slots are linked through Entry::next.
    std::vector<std::unique_ptr<Entry[]>> _chunks;
    std::uint32_t _freeHead = kNoSlot;
    std::uint32_t _slotCount = 0;

    std::size_t _size = 0; //!< pending events across all three tiers
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;

    // Scan cursor: the next tick to examine. Invariant outside pops:
    // _now <= _cursorTick <= every bucketed tick.
    Tick _cursorTick = 0;
    std::size_t _nearLive = 0; //!< entries in the buckets

    // Distributed block: block(_now) + 1, except between an epoch leap
    // and the fire it was taken for. _nextBlockStart is its first
    // tick, so fireAt() spots a block change with one compare.
    Tick _distBlock = 1;
    Tick _nextBlockStart = Tick(1) << kBlockBits;

    // Integrity layer (see noteFired). The ordering audit
    // (validate::eventOrder per fired event) is armed when the
    // process-global validation level is `full` at construction time;
    // set the level before building the queue (the CLI does, before
    // any Cluster exists).
    bool _auditOrder = validationAtLeast(ValidateLevel::kFull);
    bool _digestOn = false;
    bool _firedAny = false;
    Tick _lastWhen = 0;
    int _lastPrio = 0;
    std::uint64_t _lastSeq = 0;
    Fnv1aDigest _digest;

    // Far-future overflow heap: only blocks past the rung horizon.
    std::vector<FarRef> _far; //!< binary min-heap (std::*_heap helpers)

    // Ladder: per-tick bucket lists + occupancy bitmap.
    std::uint64_t _bmSummary = 0;
    std::uint64_t _bmWords[kWindow / 64] = {};
    List _buckets[kWindow];

    // Rung: unsorted lists for blocks (_distBlock, _distBlock +
    // kRungBlocks], list rungIndex(block), each in append order with
    // its earliest tick and entry count. A list's head and tail are
    // the heads of its first and last runs. Last, so it stays off the
    // cache lines every event touches.
    List _rung[kRungBlocks];
    Tick _rungEarliest[kRungBlocks] = {};
    std::uint32_t _rungCount[kRungBlocks] = {};
    std::uint64_t _rungMask = 0; //!< bit i set while list i is non-empty
};

} // namespace astra

#endif // ASTRA_COMMON_EVENT_QUEUE_HH

/**
 * @file
 * Per-node data state of one chunk travelling through a collective.
 *
 * Timing simulators often degrade collectives into timed token
 * exchanges; a schedule can then look right while computing garbage.
 * To guard against that, every chunk tracks *what* it logically holds:
 *
 *  - For reduce/gather collectives the chunk is E logical elements
 *    (E == the number of participating nodes). Each element carries a
 *    bit-vector of which participants' partial values have been
 *    reduced into it, plus a validity flag (whether this node's copy
 *    of the element is current).
 *
 *  - For all-to-all the chunk is a set of (source rank, destination
 *    rank) blocks that hop between nodes until each block reaches its
 *    destination.
 *
 * The property tests assert the semantics of Fig. 4 on these states
 * (e.g. after all-reduce every node holds every element with all E
 * contributions), and Sys::finishStream checks them on every run: the
 * tracking is always on. Its per-message cost is the payload: one
 * shared ChunkPayload block plus one array of per-element BitVecs,
 * whose words are stored inline for groups of up to 128 nodes, so
 * copying and merging them allocates nothing more.
 */

#ifndef ASTRA_COLLECTIVE_CHUNK_STATE_HH
#define ASTRA_COLLECTIVE_CHUNK_STATE_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "collective/validate.hh"
#include "common/bitvec.hh"
#include "common/types.hh"

namespace astra
{

/** Half-open range of logical elements [lo, hi). */
struct ElemRange
{
    int lo = 0;
    int hi = 0;

    int length() const { return hi - lo; }
    bool contains(int e) const { return e >= lo && e < hi; }
    bool operator==(const ElemRange &) const = default;

    /** The @p j-th of @p parts equal subranges (length must divide). */
    ElemRange subRange(int parts, int j) const;
};

/**
 * What a collective message carries: for reduce-scatter / all-gather
 * style messages a contiguous element range and, per element, the
 * contributions carried; for all-to-all the blocks being forwarded.
 */
struct ChunkPayload
{
    ElemRange range;
    std::vector<BitVec> contribs; //!< one BitVec per element in range
    bool reduce = false; //!< true: merge into receiver (reduce-scatter);
                         //!< false: replace/install (all-gather)
    /** (source global rank, destination global rank) pairs. */
    std::vector<std::pair<int, int>> blocks;
};

/**
 * The trackable data state of one chunk at one node.
 */
class ChunkState
{
  public:
    /**
     * @param group_size   Number of participating nodes E.
     * @param my_global_rank  This node's rank among participants.
     * @param total_bytes  Chunk payload size at collective start.
     * @param kind         Which collective the chunk is part of
     *                     (fixes the initial state).
     */
    ChunkState(int group_size, int my_global_rank, Bytes total_bytes,
               CollectiveKind kind);

    int groupSize() const { return _e; }
    int myGlobalRank() const { return _myRank; }
    Bytes totalBytes() const { return _totalBytes; }
    CollectiveKind kind() const { return _kind; }

    /**
     * Seal the chunk once its collective completes (called from
     * Sys::finishStream). Under validation (level >= basic) this is a
     * state-machine transition: any further mutation of a finalized
     * chunk raises an integrity diagnostic.
     */
    void finalize();

    /** Has finalize() run? */
    bool finalized() const { return _done; }

    /** Bytes represented by one logical element. */
    double
    bytesPerElem() const
    {
        return static_cast<double>(_totalBytes) / _e;
    }

    /** Bytes represented by @p elems logical elements (>= 1). */
    Bytes bytesFor(int elems) const;

    // --- reduce/gather view ------------------------------------------

    /** Contiguous valid range this node currently owns. */
    const ElemRange &current() const { return _current; }
    void setCurrent(const ElemRange &r) { _current = r; }

    /** Contribution set of element @p e. */
    const BitVec &contribs(int e) const;

    /** Is this node's copy of element @p e current? */
    bool valid(int e) const { return _valid[std::size_t(e)]; }

    /** Extract a range payload for @p range of the local state. */
    ChunkPayload makeRangePayload(const ElemRange &range,
                                  bool reduce) const;

    /**
     * Apply an incoming range payload: reduce-merge (payload.reduce) or
     * install (all-gather). Marks the range valid.
     */
    void applyRangePayload(const ChunkPayload &payload);

    /** Invalidate every element outside @p keep (end of an RS phase). */
    void restrictValidTo(const ElemRange &keep);

    // --- all-to-all view ----------------------------------------------

    /** Blocks currently held (all-to-all collectives only). */
    const std::vector<std::pair<int, int>> &blocks() const
    {
        return _blocks;
    }

    /**
     * Split the held blocks by the part @p part_of(dst) of their
     * destination, 0 <= part < @p parts: the blocks of part @p keep
     * stay held, every other block moves into its part of the result,
     * and both keep their held order. A multi-phase all-to-all phase
     * splits by the phase coordinate of the destination: each part is
     * what it forwards through one neighbour.
     */
    std::vector<std::vector<std::pair<int, int>>>
    takeBlocksByPart(int parts, int keep,
                     const std::function<int(int dst)> &part_of);

    /** Install forwarded blocks. */
    void addBlocks(const std::vector<std::pair<int, int>> &blocks);

    // --- verification helpers (used by tests and debug asserts) ------

    /** True if element @p e carries contributions from all E nodes. */
    bool fullyReduced(int e) const { return contribs(e).all(); }

    /** All elements valid with all contributions (all-reduce post). */
    bool allReduced() const;

    /** All elements valid (all-gather post). */
    bool allValid() const;

    /**
     * All-to-all post-condition: node holds exactly the blocks
     * {(s, myGlobalRank) : s in [0, E)}.
     */
    bool allToAllComplete() const;

    /**
     * Payload applications (applyRangePayload + addBlocks calls) this
     * chunk absorbed — a data-movement count the observability layer
     * reports alongside chunk latency.
     */
    std::uint64_t payloadsApplied() const { return _payloadsApplied; }

    // --- fault/retry lifecycle (docs/faults.md) -----------------------

    /**
     * Record that a send of this chunk was lost and timed out. An FSM
     * transition like any other: illegal on a finalized chunk, so a
     * retry racing a completed collective is caught under validation.
     * (Sys counts them in its "fault.retries*" stats.)
     */
    void noteTimeout() { checkOp(ChunkOp::Timeout); }

    /** Record that the timed-out send is being retransmitted. */
    void noteRetry() { checkOp(ChunkOp::Retry); }

  private:
    /**
     * FSM gate (integrity layer): check that @p op is a legal
     * transition for this chunk's collective kind and lifecycle state.
     * No-op unless validation was enabled at construction.
     */
    void checkOp(ChunkOp op) const;

    int _e;
    int _myRank;
    Bytes _totalBytes;
    CollectiveKind _kind;
    bool _done = false;  //!< sealed by finalize()
    bool _validate;      //!< FSM checks armed (level >= basic at ctor)
    ElemRange _current;
    std::vector<BitVec> _contribs;
    std::vector<bool> _valid;
    std::vector<std::pair<int, int>> _blocks;
    std::uint64_t _payloadsApplied = 0;
};

} // namespace astra

#endif // ASTRA_COLLECTIVE_CHUNK_STATE_HH

/**
 * @file
 * The system-layer scheduler of Fig. 7: ready queue, logical
 * scheduling queues (LSQs) and the dispatcher.
 *
 * - The *ready queue* holds issued chunks that have not entered the
 *   collective pipeline. Ordering follows the scheduling policy
 *   (parameter #7): FIFO appends, LIFO prepends (prioritizing the
 *   latest layer's collectives, Sec. III-E).
 *
 * - One *LSQ* exists per (phase index, dimension, channel): each ring
 *   of a torus dimension and each global switch of the alltoall
 *   dimension gets its own queue (Sec. IV-B). An LSQ admits up to
 *   lsq-concurrency chunks at a time, lowest stream id first.
 *
 * - The *dispatcher* issues dispatch-width (P) chunks from the ready
 *   queue whenever fewer than dispatch-threshold (T) chunks are still
 *   in the first phase of their plan.
 *
 * Deadlock note: chunks reach a given phase's LSQ in an order that can
 * differ across nodes (their pipelines run at different speeds), so a
 * strict per-LSQ serialization could produce a cross-node cycle: node
 * X runs chunk A and queues B while node Y runs B and queues A. Two
 * mechanisms break such cycles: admission is by ascending stream id
 * (globally consistent), and a queued chunk for which messages have
 * already arrived — proof that peers are actively executing it — is
 * promoted past the concurrency cap ("wanted promotion").
 */

#ifndef ASTRA_CORE_SCHEDULER_HH
#define ASTRA_CORE_SCHEDULER_HH

#include <deque>
#include <vector>

#include "common/config.hh"
#include "core/stream.hh"

namespace astra
{

class Sys;

/**
 * Per-node scheduler.
 */
class Scheduler
{
  public:
    Scheduler(Sys &sys, const SimConfig &cfg);

    /** A new chunk enters the ready queue. */
    void submit(Stream *stream);

    /**
     * Chunk entered a phase (Stream::enterPhase): put it into that
     * phase's LSQ and try admissions.
     */
    void enqueue(Stream *s);

    /**
     * Chunk finished its current phase: release its LSQ slot, trigger
     * the dispatcher (phase 0) and admissions. @p stream_complete
     * marks the final phase.
     */
    void onPhaseFinished(Stream *stream, bool stream_complete);

    /**
     * Messages arrived for @p stream's phase @p p; promote it if it is
     * waiting in that phase's LSQ (see deadlock note above).
     */
    void promoteIfWaiting(Stream *stream, int p);

    /** Chunks past the dispatcher but not yet done with phase 0. */
    int phase0Active() const { return _phase0Active; }

    /** Chunks still waiting in the ready queue. */
    std::size_t readyQueueDepth() const { return _ready.size(); }

    /** Total chunks currently inside any LSQ (waiting or running). */
    int inFlight() const { return _inFlight; }

    /**
     * Drain-time invariants (integrity layer, src/core/validate.cc):
     * once the event queue has drained, the ready queue must be empty,
     * no chunk may still be in phase 0 or in flight, and every LSQ
     * must have released all its slots. Diagnostics carry the npu id.
     */
    void validateDrained() const;

  private:
    struct LsqKey
    {
        int phase;
        int dim;
        int channel;
    };

    struct Lsq
    {
        std::vector<Stream *> waiting; //!< kept sorted by stream id
        int active = 0;
    };

    /** Key of the LSQ of @p s's current phase (its PhaseFacts). */
    LsqKey keyFor(const Stream *s) const;

    /** Slot of @p key in _lsqs (keys in lexicographic order). */
    std::size_t
    lsqIndex(const LsqKey &key) const
    {
        return (std::size_t(key.phase) * _lsqDims + std::size_t(key.dim)) *
                   _lsqChannels +
               std::size_t(key.channel);
    }

    /** Key of slot @p i of _lsqs (inverse of lsqIndex). */
    LsqKey lsqKeyAt(std::size_t i) const;

    /** Admit eligible waiters of @p key. */
    void pump(const LsqKey &key);

    /** Start @p s's current phase (admission). */
    void admit(Stream *s, const LsqKey &key);

    /**
     * Release ready chunk @p s into the pipeline: count it, record its
     * ready-queue (P0) delay, enter phase 0 and enqueue it.
     */
    void release(Stream *s);

    /** Emit a ready-queue depth trace counter (no-op without trace). */
    void traceReadyDepth();

    /** Move ready-queue chunks into phase-0 LSQs per the T/P rule. */
    void dispatch();

    Sys &_sys;
    SchedulingPolicy _policy;
    int _threshold;
    int _width;
    int _concurrency;

    std::deque<Stream *> _ready;
    /**
     * Every LSQ, indexed densely by lsqIndex(): dimensions and channels
     * are bounded by the topology, and the table grows by whole phases
     * when a deeper plan first enqueues (in enqueue() only).
     */
    std::vector<Lsq> _lsqs;
    std::size_t _lsqDims;     //!< topology dimensions
    std::size_t _lsqChannels; //!< most channels of any dimension
    int _phase0Active = 0;
    int _inFlight = 0;
};

} // namespace astra

#endif // ASTRA_CORE_SCHEDULER_HH

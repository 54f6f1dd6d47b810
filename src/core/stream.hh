/**
 * @file
 * A Stream is one chunk's journey through a multi-phase collective at
 * one node (the "chunk" of Table II once it has been issued).
 *
 * The set of a collective operation is divided into
 * preferred-set-splits chunks; each chunk becomes one Stream per
 * participating node. Streams with the same id on different nodes
 * cooperate by exchanging messages; a Stream also implements
 * AlgContext, providing the running phase algorithm its window onto
 * the system layer.
 *
 * Facts have one owner each: the set's phase plan and group live on
 * its CollectiveHandle, shared by the set's chunks; a phase's facts
 * (PhaseFacts) are fixed by enterPhase; the endpoint delay is the
 * node's (Sys::endpointDelay).
 *
 * Timing bookkeeping per phase (feeding the Fig. 12b breakdown):
 *   submittedAt           -> P0 ready-queue delay
 *   enqueuedAt[p]         \
 *   startedAt[p]           > queue delay of phase p (LSQ wait)
 *   finishedAt[p]         /  network/execution time of phase p
 */

#ifndef ASTRA_CORE_STREAM_HH
#define ASTRA_CORE_STREAM_HH

#include <memory>
#include <vector>

#include "collective/algorithm.hh"
#include "collective/chunk_state.hh"
#include "collective/phase_plan.hh"
#include "core/group_info.hh"

namespace astra
{

class Sys;

/**
 * Per-node completion tracker for one collective set (all its chunks).
 * It also carries the set's phase plan and participant group, which
 * Sys::issueCollective builds once and every chunk of the set reads.
 */
struct CollectiveHandle
{
    CollectiveHandle(PhasePlan p, GroupInfo g)
        : plan(std::move(p)), group(std::move(g))
    {
    }

    const PhasePlan plan;
    const GroupInfo group;
    CollectiveKind kind = CollectiveKind::None;
    Bytes totalBytes = 0;
    LayerId layer = -1;
    Tick issuedAt = 0;
    Tick completedAt = kTickInvalid;
    int remainingChunks = 0;
    std::function<void()> onComplete;

    bool done() const { return completedAt != kTickInvalid; }

    /** Communication latency of the whole set at this node. */
    Tick
    duration() const
    {
        return done() ? completedAt - issuedAt : kTickInvalid;
    }
};

/**
 * One chunk at one node.
 */
class Stream final : public AlgContext
{
  public:
    Stream(Sys &sys, StreamId id, Bytes chunk_bytes,
           std::shared_ptr<CollectiveHandle> handle);

    // --- identity / plan ----------------------------------------------
    StreamId id() const { return _id; }
    CollectiveKind kind() const { return _handle->kind; }
    const PhasePlan &plan() const { return _handle->plan; }
    const GroupInfo &group() const { return _handle->group; }
    const std::shared_ptr<CollectiveHandle> &handle() const
    {
        return _handle;
    }

    /** Phase currently enqueued/active; -1 before dispatch. */
    int phaseIndex() const { return _phaseIndex; }

    /** True once the phase algorithm has been started. */
    bool phaseStarted() const { return _alg != nullptr; }

    // --- AlgContext ----------------------------------------------------
    ChunkState &data() override { return _data; }
    void send(int dst_rank, int channel, Bytes bytes, int step,
              std::shared_ptr<const ChunkPayload> payload) override;
    void scheduleAfter(Tick delay, EventCallback fn) override;
    int phaseCoordOfGlobalRank(int global_rank) const override;
    void phaseDone() override;

    // --- driven by Sys / Scheduler --------------------------------------
    Tick submittedAt = kTickInvalid; //!< entered the ready queue
    std::vector<Tick> enqueuedAt;    //!< per phase: entered its LSQ
    std::vector<Tick> startedAt;     //!< per phase: algorithm started
    std::vector<Tick> finishedAt;    //!< per phase: algorithm finished

    /**
     * Enter phase @p p (Sys or the dispatcher calls, then the LSQ):
     * fix its PhaseFacts, the only place they are computed.
     */
    void enterPhase(int p, Tick now);

    /** Admitted by the LSQ: instantiate and start the algorithm. */
    void startPhase(Tick now);

    /** Phase algorithm object (null while waiting). */
    PhaseAlgorithm *algorithm() { return _alg.get(); }

    /** Drop the algorithm (between phases / at completion). */
    void clearAlgorithm() { _alg.reset(); }

    /** The phase descriptor of the current phase. */
    const PhaseDesc &phaseDesc() const;

  private:
    Sys &_sys;
    StreamId _id;
    std::shared_ptr<CollectiveHandle> _handle;
    ChunkState _data;

    int _phaseIndex = -1;
    std::unique_ptr<PhaseAlgorithm> _alg;
};

} // namespace astra

#endif // ASTRA_CORE_STREAM_HH

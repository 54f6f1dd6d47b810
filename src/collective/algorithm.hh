/**
 * @file
 * Per-node collective algorithm state machines.
 *
 * One PhaseAlgorithm instance runs on each participating node for each
 * (chunk, phase). Instances communicate only through the network (via
 * the AlgContext), exactly as the distributed implementations they
 * model: a node cannot observe a peer's state, only its messages.
 *
 * The system layer (src/core) implements AlgContext; the algorithms
 * are agnostic of streams, LSQs and the physical network. An instance
 * reads its phase's facts (PhaseFacts: group size, rank, direction,
 * channel, entry bytes, endpoint delay) from AlgContext::phase(),
 * which the system layer fixes when the chunk enters the phase.
 */

#ifndef ASTRA_COLLECTIVE_ALGORITHM_HH
#define ASTRA_COLLECTIVE_ALGORITHM_HH

#include <memory>

#include "common/event_queue.hh"
#include "collective/chunk_state.hh"
#include "collective/phase_plan.hh"
#include "net/network_api.hh"
#include "topo/topology.hh"

namespace astra
{

/**
 * One node's facts of one phase, fixed when its chunk enters the phase:
 * none of them changes while the phase runs (Sec. IV-B: each NPU runs
 * one phase algorithm per chunk on one dimension and channel).
 */
struct PhaseFacts
{
    int dim = 0;            //!< topology dimension of the phase
    int groupSize = 1;      //!< d: nodes in the phase's group
    int rank = 0;           //!< this node's rank (coordinate) in it
    int direction = +1;     //!< ring direction of the channel; +1 off rings
    int channel = 0;        //!< channel this chunk's LSQ is bound to
    int numChannels = 1;    //!< channels of the dimension
    Bytes entryBytes = 0;   //!< bytes this node holds entering the phase
    Tick endpointDelay = 0; //!< per-message handling cost (parameter
                            //!< #13), stretched on a straggler node
};

/**
 * Services the system layer provides to an algorithm instance. The
 * per-phase facts are plain data the implementation fills when a phase
 * is entered; the rest is behaviour.
 */
class AlgContext
{
  public:
    /** This node's facts of the running phase. */
    const PhaseFacts &phase() const { return _facts; }

    /** The chunk's trackable data state. */
    virtual ChunkState &data() = 0;

    /**
     * Send @p bytes to the phase-group member with rank @p dst_rank
     * through channel @p channel of this phase's dimension. A ring
     * pass sends on phase().channel; a direct pass spreads its
     * concurrent transfers over the global switches (Sec. III-B:
     * "receiving data from all other nodes at the same time"). @p step
     * disambiguates algorithm steps at the receiver; @p payload
     * carries the tracking state.
     */
    virtual void send(int dst_rank, int channel, Bytes bytes, int step,
                      std::shared_ptr<const ChunkPayload> payload) = 0;

    /**
     * Run @p fn after @p delay cycles. Takes the event queue's own
     * EventCallback (not std::function) so a small lambda goes from
     * the algorithm into the queue's slab without an intermediate
     * type-erased wrapper — this is the per-chunk hot path.
     */
    virtual void scheduleAfter(Tick delay, EventCallback fn) = 0;

    /**
     * Coordinate along this phase's dimension of the participant with
     * global rank @p global_rank (multi-phase all-to-all routing).
     */
    virtual int phaseCoordOfGlobalRank(int global_rank) const = 0;

    /** Signal that this node has finished the phase. */
    virtual void phaseDone() = 0;

  protected:
    /** Not owned through this interface. */
    ~AlgContext() = default;

    /** Set by the implementation before the phase's algorithm exists. */
    PhaseFacts _facts;
};

/**
 * Abstract per-node, per-phase algorithm. Messages may arrive before
 * start() (a faster peer is ahead); every algorithm holds them,
 * unprocessed, until it has started, processes each one endpoint delay
 * after the previous (PassBase, collective/pass.hh), and calls
 * AlgContext::phaseDone() exactly once.
 */
class PhaseAlgorithm
{
  public:
    virtual ~PhaseAlgorithm() = default;

    /** Begin executing (the chunk reached the head of its LSQ). */
    virtual void start() = 0;

    /** A message for this (chunk, phase) arrived. */
    virtual void onMessage(const Message &msg) = 0;
};

/**
 * Instantiate the algorithm for @p op on a dimension with pattern
 * @p pattern (Ring -> ring algorithms of Fig. 5 left; Switch -> direct
 * algorithms of Fig. 5 right).
 */
std::unique_ptr<PhaseAlgorithm>
makePhaseAlgorithm(DimPattern pattern, CollectiveKind op, AlgContext &ctx);

} // namespace astra

#endif // ASTRA_COLLECTIVE_ALGORITHM_HH

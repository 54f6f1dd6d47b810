/**
 * @file
 * Ring collective algorithms (Sec. III-B, Fig. 5 left).
 *
 * All four collectives on a unidirectional ring of d nodes:
 *
 *  - Reduce-scatter: d-1 steps; at step s node r sends block
 *    (r - dir*s) mod d to its successor and receives block
 *    (r - dir*(s+1)) mod d, reducing it locally before forwarding at
 *    the next step. Node r ends up owning block (r + dir) mod d.
 *  - All-gather: d-1 relay steps without reduction.
 *  - All-reduce: reduce-scatter followed by all-gather (2(d-1) steps).
 *  - All-to-all: d-1 steps; at step i node r sends the data destined
 *    to the node at ring distance i (message size = entry/d). With
 *    multi-phase plans the message also carries every block routable
 *    through that destination in later phases (Sec. III-D).
 *
 * Receive processing is serialized per instance and each received
 * message pays the endpoint delay before its data can be used — this
 * models the NMU's message handling cost.
 */

#ifndef ASTRA_COLLECTIVE_RING_ALGORITHMS_HH
#define ASTRA_COLLECTIVE_RING_ALGORITHMS_HH

#include <memory>
#include <vector>

#include "collective/algorithm.hh"

namespace astra
{

/**
 * Shared machinery for the step-ordered ring passes (RS and AG):
 * buffers out-of-order arrivals and processes them strictly in step
 * order with the endpoint delay between steps.
 */
class RingPassBase : public PhaseAlgorithm
{
  public:
    /**
     * @param ctx         System-layer services.
     * @param step_offset Added to every wire step tag (lets all-reduce
     *                    chain an RS pass and an AG pass with disjoint
     *                    step numbering).
     * @param on_complete Invoked when the pass finishes locally; the
     *                    standalone factory passes ctx.phaseDone.
     */
    RingPassBase(AlgContext &ctx, int step_offset,
                 std::function<void()> on_complete);

    void onMessage(const Message &msg) override;

  protected:
    /** Process the (in-order) payload of local step @p s. */
    virtual void processStep(int s,
                             std::shared_ptr<RangePayload> payload) = 0;

    /** Dequeue-and-process loop; call after state changes. */
    void pumpReceives();

    /** Mark this pass complete. */
    void complete();

    int mod(int x) const;

    AlgContext &_ctx;
    const int _d;
    const int _r;
    const int _dir;
    const int _stepOffset;
    std::function<void()> _onComplete;

    int _nextRecvStep = 0;     //!< next step to process
    bool _processing = false;  //!< endpoint busy with a message
    bool _started = false;
    bool _completed = false;
    /**
     * Arrived, not yet processed payloads by local step: d-1 slots,
     * allocated on the first arrival (null = not arrived or done).
     */
    std::vector<std::shared_ptr<RangePayload>> _pending;
};

/** Ring reduce-scatter. */
class RingReduceScatter : public RingPassBase
{
  public:
    RingReduceScatter(AlgContext &ctx, int step_offset,
                      std::function<void()> on_complete);

    void start() override;

  protected:
    void processStep(int s, std::shared_ptr<RangePayload> payload) override;

  private:
    void sendStep(int s);

    ElemRange _entryRange;
};

/** Ring all-gather. */
class RingAllGather : public RingPassBase
{
  public:
    RingAllGather(AlgContext &ctx, int step_offset,
                  std::function<void()> on_complete);

    void start() override;

  protected:
    void processStep(int s, std::shared_ptr<RangePayload> payload) override;

  private:
    int _hullLo = 0;
    int _hullHi = 0;
};

/** Ring all-reduce: an RS pass chained into an AG pass. */
class RingAllReduce : public PhaseAlgorithm
{
  public:
    explicit RingAllReduce(AlgContext &ctx);

    void start() override;
    void onMessage(const Message &msg) override;

  private:
    AlgContext &_ctx;
    RingReduceScatter _rs;
    RingAllGather _ag;
    bool _inGather = false;
    /** AG messages arriving while this node is still reduce-scattering. */
    std::vector<Message> _earlyGather;
};

/** Ring all-to-all. */
class RingAllToAll : public PhaseAlgorithm
{
  public:
    explicit RingAllToAll(AlgContext &ctx);

    void start() override;
    void onMessage(const Message &msg) override;

  private:
    void finishIfDone();

    AlgContext &_ctx;
    const int _d;
    const int _r;
    const int _dir;
    int _received = 0;
    bool _started = false;
    bool _completed = false;
};

} // namespace astra

#endif // ASTRA_COLLECTIVE_RING_ALGORITHMS_HH

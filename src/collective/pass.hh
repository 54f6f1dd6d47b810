/**
 * @file
 * The receive engine of every collective pass (Sec. III-B, Fig. 5),
 * the all-to-all pass both dimension patterns share, and the
 * all-reduce that chains a reduce-scatter pass into an all-gather
 * pass on either pattern.
 *
 * A pass on a group of d nodes receives d-1 messages, each into a
 * payload slot. A ring reduce-scatter or all-gather files a message
 * under its step, so out-of-order arrivals are processed in step
 * order; the direct passes and both all-to-alls file it under its
 * arrival count, so arrivals are processed in arrival order (their
 * steps carry no data dependency). The slots are processed one at a
 * time, each after the endpoint delay (the NMU's per-message handling
 * cost), and only once the pass has started: arrivals that come
 * before start() wait in their slots.
 *
 * A pass reads its group size, rank, direction, channel and endpoint
 * delay from AlgContext::phase(); they are fixed for the whole phase,
 * so the pass copies the first three at construction.
 */

#ifndef ASTRA_COLLECTIVE_PASS_HH
#define ASTRA_COLLECTIVE_PASS_HH

#include <memory>
#include <vector>

#include "collective/algorithm.hh"

namespace astra
{

/** The order a pass processes its received messages in. */
enum class ReceiveOrder
{
    /** By wire step: slot = step - first step (ring RS and AG). */
    ByStep,
    /** By arrival: every message on the first step (direct passes,
     *  all-to-alls). */
    ByArrival,
};

/** One reduce-scatter, all-gather or all-to-all pass. */
class PassBase : public PhaseAlgorithm
{
  public:
    void start() final;
    void onMessage(const Message &msg) final;

  protected:
    /**
     * @param ctx        System-layer services.
     * @param order      How received messages are filed into slots.
     * @param first_step Wire step of the pass's first message (an
     *                   all-reduce numbers its all-gather steps after
     *                   its reduce-scatter steps).
     * @param next       Pass started when this one completes; null
     *                   when completing it finishes the phase.
     */
    PassBase(AlgContext &ctx, ReceiveOrder order, int first_step,
             PassBase *next);

    /** Send the pass's opening messages (d > 1). */
    virtual void begin() = 0;

    /**
     * Use the payload of slot @p s, already past the endpoint delay.
     * The pass calls complete() after its last slot.
     */
    virtual void
    processStep(int s,
                const std::shared_ptr<const ChunkPayload> &payload) = 0;

    /** Finish the pass: start the next one, or end the phase. */
    void complete();

    bool lastStep(int s) const { return s == _d - 2; }
    int mod(int x) const { return ((x % _d) + _d) % _d; }

    AlgContext &_ctx;
    const int _d;
    const int _r;
    const int _dir;
    const int _firstStep;

  private:
    /** Process the next filled slot unless one is being processed. */
    void pumpReceives();

    const bool _stepOrdered;
    PassBase *const _next;

    int _arrived = 0;  //!< messages received (direct slot index)
    int _nextRecv = 0; //!< next slot to process
    bool _processing = false; //!< endpoint busy with a message
    bool _started = false;
    bool _completed = false;
    /** Received, not yet processed payloads: d-1 slots. */
    std::vector<std::shared_ptr<const ChunkPayload>> _slots;
};

/**
 * All-to-all (ring or direct): the pass sends each of the d-1 other
 * members one message with the blocks routable through it (Sec.
 * III-D: with multi-phase plans that includes every block it relays in
 * later phases), and applies the d-1 messages it receives by arrival.
 * begin() splits the held blocks by the phase coordinate of their
 * destination once; the derived passes differ only in the order and
 * channels of sendParts()'s sends.
 */
class AllToAllPass : public PassBase
{
  protected:
    explicit AllToAllPass(AlgContext &ctx);

    void begin() final;

    /** Send every other member its part (sendBlocksTo). */
    virtual void sendParts() = 0;

    /**
     * Send phase rank @p dst, on channel @p channel, its part: the
     * blocks whose destination lies at @p dst's coordinate of this
     * phase's dimension; ceil(entry / d) bytes.
     */
    void sendBlocksTo(int dst, int channel);

    void processStep(
        int s, const std::shared_ptr<const ChunkPayload> &payload) final;

  private:
    /** The blocks bound for each phase rank, taken at begin(). */
    std::vector<std::vector<std::pair<int, int>>> _parts;
};

/**
 * All-reduce: a reduce-scatter pass chained into an all-gather pass
 * (ring: RS steps 0..d-2, AG steps from d-1; direct: RS step 0, AG
 * step 1). An all-gather step from a peer that finished its
 * reduce-scatter first waits in the AG pass until this node's RS pass
 * completes and starts it.
 */
template <class RS, class AG>
class AllReduce final : public PhaseAlgorithm
{
  public:
    AllReduce(AlgContext &ctx, int ag_first_step)
        : _agFirstStep(ag_first_step), _rs(ctx, 0, &_ag),
          _ag(ctx, ag_first_step, nullptr)
    {
    }

    void start() override { _rs.start(); }

    void
    onMessage(const Message &msg) override
    {
        if (msg.tag.step < _agFirstStep)
            _rs.onMessage(msg);
        else
            _ag.onMessage(msg);
    }

  private:
    const int _agFirstStep;
    RS _rs;
    AG _ag;
};

} // namespace astra

#endif // ASTRA_COLLECTIVE_PASS_HH

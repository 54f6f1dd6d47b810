/**
 * @file
 * The receive engine of every step-serialized collective pass (Sec.
 * III-B, Fig. 5), and the all-reduce that chains a reduce-scatter pass
 * into an all-gather pass on either dimension pattern.
 *
 * A pass on a group of d nodes receives d-1 messages, each into a
 * payload slot. A ring pass files a message under its step, so
 * out-of-order arrivals are processed in step order; a direct pass
 * files it under its arrival count, so arrivals are processed in
 * arrival order (order across peers is irrelevant there). The slots
 * are processed one at a time, each after the endpoint delay (the
 * NMU's per-message handling cost), and only once the pass has
 * started: arrivals that come before start() wait in their slots.
 */

#ifndef ASTRA_COLLECTIVE_PASS_HH
#define ASTRA_COLLECTIVE_PASS_HH

#include <memory>
#include <vector>

#include "collective/algorithm.hh"

namespace astra
{

/** One reduce-scatter, all-gather or direct all-to-all pass. */
class PassBase : public PhaseAlgorithm
{
  public:
    void start() final;
    void onMessage(const Message &msg) final;

  protected:
    /**
     * @param ctx        System-layer services.
     * @param pattern    Ring: slot by step; Switch: slot by arrival.
     * @param first_step Wire step of the pass's first message (an
     *                   all-reduce numbers its all-gather steps after
     *                   its reduce-scatter steps).
     * @param next       Pass started when this one completes; null
     *                   when completing it finishes the phase.
     */
    PassBase(AlgContext &ctx, DimPattern pattern, int first_step,
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

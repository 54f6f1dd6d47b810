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
 * Each received message pays the endpoint delay before its data can
 * be used — this models the NMU's message handling cost. The RS and AG
 * passes process their receives one at a time, in step order
 * (collective/pass.hh). The all-to-all does not serialize: each
 * arrival pays its endpoint delay on its own, so concurrent arrivals
 * overlap.
 */

#ifndef ASTRA_COLLECTIVE_RING_ALGORITHMS_HH
#define ASTRA_COLLECTIVE_RING_ALGORITHMS_HH

#include <memory>

#include "collective/pass.hh"

namespace astra
{

/** Ring reduce-scatter. */
class RingReduceScatter : public PassBase
{
  public:
    RingReduceScatter(AlgContext &ctx, int first_step, PassBase *next);

  protected:
    void begin() override;
    void processStep(
        int s, const std::shared_ptr<const ChunkPayload> &payload) override;

  private:
    void sendStep(int s);

    ElemRange _entryRange;
};

/** Ring all-gather. */
class RingAllGather : public PassBase
{
  public:
    RingAllGather(AlgContext &ctx, int first_step, PassBase *next);

  protected:
    void begin() override;
    void processStep(
        int s, const std::shared_ptr<const ChunkPayload> &payload) override;

  private:
    int _hullLo = 0;
    int _hullHi = 0;
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

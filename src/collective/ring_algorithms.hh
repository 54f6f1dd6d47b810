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
 *  - All-to-all: node r sends its d-1 messages at once, the i-th with
 *    the data destined to the node at ring distance i (message size =
 *    entry/d). With multi-phase plans the message also carries every
 *    block routable through that destination in later phases (Sec.
 *    III-D).
 *
 * Each received message pays the endpoint delay before its data can
 * be used — this models the NMU's message handling cost. Every pass
 * processes its receives one at a time (collective/pass.hh): the RS
 * and AG passes in step order, the all-to-all in arrival order.
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
class RingAllToAll : public AllToAllPass
{
  public:
    explicit RingAllToAll(AlgContext &ctx);

  protected:
    void sendParts() override;
};

} // namespace astra

#endif // ASTRA_COLLECTIVE_RING_ALGORITHMS_HH

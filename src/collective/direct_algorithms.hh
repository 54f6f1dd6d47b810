/**
 * @file
 * Direct collective algorithms for the alltoall (switch) dimension
 * (Sec. III-B, Fig. 5 right).
 *
 * On an alltoall-connected group of d nodes every pair communicates
 * directly (through a global switch), so:
 *
 *  - Reduce-scatter: node r sends block j to node j for all j != r,
 *    all at once, and reduces the d-1 partials it receives for its own
 *    block.
 *  - All-gather: every node broadcasts its block to all peers.
 *  - All-reduce: reduce-scatter then all-gather.
 *  - All-to-all: node r sends each peer the blocks routable to it.
 *
 * Simultaneous transfers to different peers are spread over the global
 * switches with the permutation channel (src + dst + chunk-channel)
 * mod num-switches, so a node's d-1 concurrent messages use distinct
 * up-links when enough switches exist — and queue on shared links when
 * they don't, reproducing the alltoall topology's queuing behaviour
 * noted in Fig. 9.
 */

#ifndef ASTRA_COLLECTIVE_DIRECT_ALGORITHMS_HH
#define ASTRA_COLLECTIVE_DIRECT_ALGORITHMS_HH

#include <memory>

#include "collective/pass.hh"

namespace astra
{

/** Direct reduce-scatter. */
class DirectReduceScatter : public PassBase
{
  public:
    DirectReduceScatter(AlgContext &ctx, int first_step, PassBase *next);

  protected:
    void begin() override;
    void processStep(
        int s, const std::shared_ptr<const ChunkPayload> &payload) override;

  private:
    ElemRange _entryRange;
};

/** Direct all-gather. */
class DirectAllGather : public PassBase
{
  public:
    DirectAllGather(AlgContext &ctx, int first_step, PassBase *next);

  protected:
    void begin() override;
    void processStep(
        int s, const std::shared_ptr<const ChunkPayload> &payload) override;

  private:
    int _hullLo = 0;
    int _hullHi = 0;
};

/** Direct all-to-all. */
class DirectAllToAll : public AllToAllPass
{
  public:
    explicit DirectAllToAll(AlgContext &ctx);

  protected:
    void sendParts() override;
};

} // namespace astra

#endif // ASTRA_COLLECTIVE_DIRECT_ALGORITHMS_HH

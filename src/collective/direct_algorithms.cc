#include "collective/direct_algorithms.hh"

#include <algorithm>

#include "common/logging.hh"

namespace astra
{

namespace
{

/** Spread the transfer to @p dst_rank over the global switches. */
int
channelFor(const AlgContext &ctx, int dst_rank)
{
    const PhaseFacts &ph = ctx.phase();
    return (ph.rank + dst_rank + ph.channel) % ph.numChannels;
}

} // namespace

// --- DirectReduceScatter ------------------------------------------------

DirectReduceScatter::DirectReduceScatter(AlgContext &ctx, int first_step,
                                         PassBase *next)
    : PassBase(ctx, ReceiveOrder::ByArrival, first_step, next)
{
}

void
DirectReduceScatter::begin()
{
    _entryRange = _ctx.data().current();
    // Send block j to node j, all peers at once (Fig. 5 right).
    for (int j = 0; j < _d; ++j) {
        if (j == _r)
            continue;
        const ElemRange br = _entryRange.subRange(_d, j);
        _ctx.send(j, channelFor(_ctx, j), _ctx.data().bytesFor(br.length()),
                  _firstStep,
                  std::make_shared<const ChunkPayload>(
                      _ctx.data().makeRangePayload(br, /*reduce=*/true)));
    }
}

void
DirectReduceScatter::processStep(
    int s, const std::shared_ptr<const ChunkPayload> &payload)
{
    if (!(payload->range == _entryRange.subRange(_d, _r)))
        panic("direct RS received a block not owned by this node");
    _ctx.data().applyRangePayload(*payload);
    if (lastStep(s)) {
        _ctx.data().restrictValidTo(_entryRange.subRange(_d, _r));
        complete();
    }
}

// --- DirectAllGather ------------------------------------------------------

DirectAllGather::DirectAllGather(AlgContext &ctx, int first_step,
                                 PassBase *next)
    : PassBase(ctx, ReceiveOrder::ByArrival, first_step, next)
{
}

void
DirectAllGather::begin()
{
    const ElemRange cur = _ctx.data().current();
    _hullLo = cur.lo;
    _hullHi = cur.hi;
    // Broadcast the own block to every peer.
    for (int j = 0; j < _d; ++j) {
        if (j == _r)
            continue;
        _ctx.send(j, channelFor(_ctx, j), _ctx.data().bytesFor(cur.length()),
                  _firstStep,
                  std::make_shared<const ChunkPayload>(
                      _ctx.data().makeRangePayload(cur, /*reduce=*/false)));
    }
}

void
DirectAllGather::processStep(
    int s, const std::shared_ptr<const ChunkPayload> &payload)
{
    _ctx.data().applyRangePayload(*payload);
    _hullLo = std::min(_hullLo, payload->range.lo);
    _hullHi = std::max(_hullHi, payload->range.hi);
    if (lastStep(s)) {
        _ctx.data().setCurrent(ElemRange{_hullLo, _hullHi});
        complete();
    }
}

// --- DirectAllToAll ---------------------------------------------------------

DirectAllToAll::DirectAllToAll(AlgContext &ctx) : AllToAllPass(ctx) {}

void
DirectAllToAll::sendParts()
{
    for (int j = 0; j < _d; ++j) {
        if (j != _r)
            sendBlocksTo(j, channelFor(_ctx, j));
    }
}

} // namespace astra

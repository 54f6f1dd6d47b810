#include "collective/ring_algorithms.hh"

#include <algorithm>

namespace astra
{

// --- RingReduceScatter --------------------------------------------------

RingReduceScatter::RingReduceScatter(AlgContext &ctx, int first_step,
                                     PassBase *next)
    : PassBase(ctx, ReceiveOrder::ByStep, first_step, next)
{
}

void
RingReduceScatter::begin()
{
    _entryRange = _ctx.data().current();
    sendStep(0);
}

void
RingReduceScatter::sendStep(int s)
{
    const int block = mod(_r - _dir * s);
    const ElemRange br = _entryRange.subRange(_d, block);
    _ctx.send(mod(_r + _dir), _ctx.phase().channel,
              _ctx.data().bytesFor(br.length()), _firstStep + s,
              std::make_shared<const ChunkPayload>(
                  _ctx.data().makeRangePayload(br, /*reduce=*/true)));
}

void
RingReduceScatter::processStep(
    int s, const std::shared_ptr<const ChunkPayload> &payload)
{
    // Received block (r - dir*(s+1)): reduce into the local partial.
    _ctx.data().applyRangePayload(*payload);
    if (!lastStep(s)) {
        // Forward the freshly reduced block on the next step.
        sendStep(s + 1);
    } else {
        // Done: this node now owns block (r + dir) fully reduced.
        const int owned = mod(_r + _dir);
        _ctx.data().restrictValidTo(_entryRange.subRange(_d, owned));
        complete();
    }
}

// --- RingAllGather ------------------------------------------------------

RingAllGather::RingAllGather(AlgContext &ctx, int first_step,
                             PassBase *next)
    : PassBase(ctx, ReceiveOrder::ByStep, first_step, next)
{
}

void
RingAllGather::begin()
{
    const ElemRange cur = _ctx.data().current();
    _hullLo = cur.lo;
    _hullHi = cur.hi;
    // Step 0: broadcast the own block to the successor.
    _ctx.send(mod(_r + _dir), _ctx.phase().channel,
              _ctx.data().bytesFor(cur.length()), _firstStep,
              std::make_shared<const ChunkPayload>(
                  _ctx.data().makeRangePayload(cur, /*reduce=*/false)));
}

void
RingAllGather::processStep(
    int s, const std::shared_ptr<const ChunkPayload> &payload)
{
    _ctx.data().applyRangePayload(*payload);
    _hullLo = std::min(_hullLo, payload->range.lo);
    _hullHi = std::max(_hullHi, payload->range.hi);
    if (!lastStep(s)) {
        // Relay the block onward unchanged.
        _ctx.send(mod(_r + _dir), _ctx.phase().channel,
                  _ctx.data().bytesFor(payload->range.length()),
                  _firstStep + s + 1, payload);
    } else {
        _ctx.data().setCurrent(ElemRange{_hullLo, _hullHi});
        complete();
    }
}

// --- RingAllToAll -------------------------------------------------------

RingAllToAll::RingAllToAll(AlgContext &ctx) : AllToAllPass(ctx) {}

void
RingAllToAll::sendParts()
{
    // All messages are available up front: data destined to the node
    // at ring distance i goes out i-th.
    for (int i = 1; i < _d; ++i)
        sendBlocksTo(mod(_r + _dir * i), _ctx.phase().channel);
}

} // namespace astra

#include "collective/ring_algorithms.hh"

#include <algorithm>

namespace astra
{

// --- RingReduceScatter --------------------------------------------------

RingReduceScatter::RingReduceScatter(AlgContext &ctx, int first_step,
                                     PassBase *next)
    : PassBase(ctx, DimPattern::Ring, first_step, next)
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
    _ctx.send(mod(_r + _dir), _ctx.myChannel(),
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
    : PassBase(ctx, DimPattern::Ring, first_step, next)
{
}

void
RingAllGather::begin()
{
    const ElemRange cur = _ctx.data().current();
    _hullLo = cur.lo;
    _hullHi = cur.hi;
    // Step 0: broadcast the own block to the successor.
    _ctx.send(mod(_r + _dir), _ctx.myChannel(),
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
        _ctx.send(mod(_r + _dir), _ctx.myChannel(),
                  _ctx.data().bytesFor(payload->range.length()),
                  _firstStep + s + 1, payload);
    } else {
        _ctx.data().setCurrent(ElemRange{_hullLo, _hullHi});
        complete();
    }
}

// --- RingAllToAll -------------------------------------------------------

RingAllToAll::RingAllToAll(AlgContext &ctx)
    : _ctx(ctx), _d(ctx.groupSize()), _r(ctx.myRank()),
      _dir(ctx.direction())
{
}

void
RingAllToAll::start()
{
    _started = true;
    if (_d == 1) {
        _completed = true;
        _ctx.phaseDone();
        return;
    }
    const Bytes msg_bytes =
        (_ctx.entryBytes() + Bytes(_d) - 1) / Bytes(_d);
    // All messages are available up front: data destined to the node
    // at ring distance i (including blocks routable through it in the
    // remaining phases) goes out at step i.
    for (int i = 1; i < _d; ++i) {
        const int dst = ((_r + _dir * i) % _d + _d) % _d;
        auto payload = std::make_shared<ChunkPayload>();
        payload->blocks = _ctx.data().takeBlocksIf(
            [this, dst](int, int blk_dst) {
                return _ctx.phaseCoordOfGlobalRank(blk_dst) == dst;
            });
        _ctx.send(dst, _ctx.myChannel(), msg_bytes, i, std::move(payload));
    }
    finishIfDone();
}

void
RingAllToAll::onMessage(const Message &msg)
{
    // Unlike the passes, each arrival pays its endpoint delay on its
    // own (see the file comment).
    _ctx.scheduleAfter(_ctx.endpointDelay(), [this, payload = msg.payload] {
        _ctx.data().addBlocks(payload->blocks);
        ++_received;
        finishIfDone();
    });
}

void
RingAllToAll::finishIfDone()
{
    if (_completed || !_started)
        return;
    if (_received == _d - 1) {
        _completed = true;
        _ctx.phaseDone();
    }
}

} // namespace astra

#include "collective/ring_algorithms.hh"

#include "common/logging.hh"

namespace astra
{

// --- RingPassBase -----------------------------------------------------

RingPassBase::RingPassBase(AlgContext &ctx, int step_offset,
                           std::function<void()> on_complete)
    : _ctx(ctx), _d(ctx.groupSize()), _r(ctx.myRank()),
      _dir(ctx.direction()), _stepOffset(step_offset),
      _onComplete(std::move(on_complete))
{
}

int
RingPassBase::mod(int x) const
{
    return ((x % _d) + _d) % _d;
}

void
RingPassBase::onMessage(const Message &msg)
{
    const int s = msg.tag.step - _stepOffset;
    if (s < 0 || s >= _d - 1)
        panic("ring pass got step %d (d=%d)", s, _d);
    auto payload = std::static_pointer_cast<RangePayload>(msg.payload);
    if (!payload)
        panic("ring pass message without payload");
    if (_pending.empty())
        _pending.resize(std::size_t(_d - 1));
    std::shared_ptr<RangePayload> &slot = _pending[std::size_t(s)];
    if (slot)
        panic("duplicate ring step %d", s);
    slot = std::move(payload);
    pumpReceives();
}

void
RingPassBase::pumpReceives()
{
    if (!_started || _completed || _processing)
        return;
    const int s = _nextRecvStep;
    if (std::size_t(s) >= _pending.size() || !_pending[std::size_t(s)])
        return;
    auto payload = std::move(_pending[std::size_t(s)]);
    _processing = true;
    // The endpoint (NMU) spends endpointDelay cycles per received
    // message before its data is usable.
    _ctx.scheduleAfter(_ctx.endpointDelay(),
                       [this, s, payload = std::move(payload)] {
                           _processing = false;
                           ++_nextRecvStep;
                           processStep(s, payload);
                           if (!_completed)
                               pumpReceives();
                       });
}

void
RingPassBase::complete()
{
    if (_completed)
        panic("ring pass completed twice");
    _completed = true;
    _onComplete();
}

// --- RingReduceScatter --------------------------------------------------

RingReduceScatter::RingReduceScatter(AlgContext &ctx, int step_offset,
                                     std::function<void()> on_complete)
    : RingPassBase(ctx, step_offset, std::move(on_complete))
{
}

void
RingReduceScatter::start()
{
    _started = true;
    _entryRange = _ctx.data().current();
    if (_d == 1) {
        complete();
        return;
    }
    sendStep(0);
    pumpReceives();
}

void
RingReduceScatter::sendStep(int s)
{
    const int block = mod(_r - _dir * s);
    const ElemRange br = _entryRange.subRange(_d, block);
    auto payload = std::make_shared<RangePayload>(
        _ctx.data().makeRangePayload(br, /*reduce=*/true));
    _ctx.sendToRank(mod(_r + _dir), _ctx.data().bytesFor(br.length()),
                    _stepOffset + s, std::move(payload));
}

void
RingReduceScatter::processStep(int s, std::shared_ptr<RangePayload> payload)
{
    // Received block (r - dir*(s+1)): reduce into the local partial.
    _ctx.data().applyRangePayload(*payload);
    if (s < _d - 2) {
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

RingAllGather::RingAllGather(AlgContext &ctx, int step_offset,
                             std::function<void()> on_complete)
    : RingPassBase(ctx, step_offset, std::move(on_complete))
{
}

void
RingAllGather::start()
{
    _started = true;
    const ElemRange cur = _ctx.data().current();
    _hullLo = cur.lo;
    _hullHi = cur.hi;
    if (_d == 1) {
        complete();
        return;
    }
    // Step 0: broadcast the own block to the successor.
    auto payload = std::make_shared<RangePayload>(
        _ctx.data().makeRangePayload(cur, /*reduce=*/false));
    _ctx.sendToRank(mod(_r + _dir), _ctx.data().bytesFor(cur.length()),
                    _stepOffset + 0, std::move(payload));
    pumpReceives();
}

void
RingAllGather::processStep(int s, std::shared_ptr<RangePayload> payload)
{
    _ctx.data().applyRangePayload(*payload);
    _hullLo = std::min(_hullLo, payload->range.lo);
    _hullHi = std::max(_hullHi, payload->range.hi);
    if (s < _d - 2) {
        // Relay the block onward unchanged.
        _ctx.sendToRank(mod(_r + _dir),
                        _ctx.data().bytesFor(payload->range.length()),
                        _stepOffset + s + 1, payload);
    } else {
        _ctx.data().setCurrent(ElemRange{_hullLo, _hullHi});
        complete();
    }
}

// --- RingAllReduce ------------------------------------------------------

RingAllReduce::RingAllReduce(AlgContext &ctx)
    : _ctx(ctx),
      _rs(ctx, 0,
          [this] {
              _inGather = true;
              _ag.start();
              for (const Message &m : _earlyGather)
                  _ag.onMessage(m);
              _earlyGather.clear();
          }),
      _ag(ctx, ctx.groupSize() - 1, [this] { _ctx.phaseDone(); })
{
}

void
RingAllReduce::start()
{
    _rs.start();
}

void
RingAllReduce::onMessage(const Message &msg)
{
    const int d = _ctx.groupSize();
    if (msg.tag.step < d - 1) {
        _rs.onMessage(msg);
    } else if (_inGather) {
        _ag.onMessage(msg);
    } else {
        // A faster peer finished its reduce-scatter and already sent
        // an all-gather step; hold it until our RS pass ends.
        _earlyGather.push_back(msg);
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
        auto payload = std::make_shared<BlockPayload>();
        payload->blocks = _ctx.data().takeBlocksIf(
            [this, dst](int, int blk_dst) {
                return _ctx.phaseCoordOfGlobalRank(blk_dst) == dst;
            });
        _ctx.sendToRank(dst, msg_bytes, i, std::move(payload));
    }
    finishIfDone();
}

void
RingAllToAll::onMessage(const Message &msg)
{
    auto payload = std::static_pointer_cast<BlockPayload>(msg.payload);
    _ctx.scheduleAfter(_ctx.endpointDelay(), [this, payload] {
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

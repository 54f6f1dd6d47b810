#include "collective/pass.hh"

#include "common/logging.hh"

namespace astra
{

PassBase::PassBase(AlgContext &ctx, ReceiveOrder order, int first_step,
                   PassBase *next)
    : _ctx(ctx), _d(ctx.phase().groupSize), _r(ctx.phase().rank),
      _dir(ctx.phase().direction), _firstStep(first_step),
      _stepOrdered(order == ReceiveOrder::ByStep), _next(next),
      _slots(std::size_t(_d - 1))
{
}

void
PassBase::start()
{
    _started = true;
    if (_d == 1) {
        complete();
        return;
    }
    begin();
    pumpReceives();
}

void
PassBase::onMessage(const Message &msg)
{
    int s;
    if (_stepOrdered) {
        s = msg.tag.step - _firstStep;
        if (s < 0 || s >= _d - 1)
            panic("ring pass got step %d (d=%d)", s, _d);
        if (s < _nextRecv || _slots[std::size_t(s)])
            panic("duplicate ring step %d", s);
    } else {
        if (msg.tag.step != _firstStep)
            panic("pass got step %d, expected %d", msg.tag.step,
                  _firstStep);
        s = _arrived++;
        if (s >= _d - 1)
            panic("pass got arrival %d of %d", s + 1, _d - 1);
    }
    if (!msg.payload)
        panic("collective pass message without payload");
    _slots[std::size_t(s)] = msg.payload;
    pumpReceives();
}

void
PassBase::pumpReceives()
{
    if (!_started || _completed || _processing ||
        std::size_t(_nextRecv) == _slots.size() ||
        !_slots[std::size_t(_nextRecv)])
        return;
    _processing = true;
    // The endpoint (NMU) spends the endpoint delay per received
    // message before its data is usable.
    _ctx.scheduleAfter(_ctx.phase().endpointDelay, [this] {
        _processing = false;
        const int s = _nextRecv++;
        const auto payload = std::move(_slots[std::size_t(s)]);
        processStep(s, payload);
        if (!_completed)
            pumpReceives();
    });
}

void
PassBase::complete()
{
    if (_completed)
        panic("collective pass completed twice");
    _completed = true;
    if (_next)
        _next->start();
    else
        _ctx.phaseDone();
}

AllToAllPass::AllToAllPass(AlgContext &ctx)
    : PassBase(ctx, ReceiveOrder::ByArrival, /*first_step=*/0, nullptr)
{
}

void
AllToAllPass::begin()
{
    // One pass over the held blocks: each peer's part is sent whole,
    // and the blocks bound for this node's own coordinate stay held.
    _parts = _ctx.data().takeBlocksByPart(_d, _r, [this](int dst) {
        return _ctx.phaseCoordOfGlobalRank(dst);
    });
    sendParts();
}

void
AllToAllPass::sendBlocksTo(int dst, int channel)
{
    auto payload = std::make_shared<ChunkPayload>();
    payload->blocks = std::move(_parts[std::size_t(dst)]);
    _ctx.send(dst, channel,
              (_ctx.phase().entryBytes + Bytes(_d) - 1) / Bytes(_d),
              _firstStep, std::move(payload));
}

void
AllToAllPass::processStep(
    int s, const std::shared_ptr<const ChunkPayload> &payload)
{
    _ctx.data().addBlocks(payload->blocks);
    if (lastStep(s))
        complete();
}

} // namespace astra

// astra-lint: hot-path (every analytical hop, retry and delivery event
// is scheduled here; transfers live in a slab, see allocTransfer)
#include "net/analytical.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "net/validate.hh"

namespace astra
{

AnalyticalNetwork::AnalyticalNetwork(EventQueue &eq, const Topology &topo,
                                     const SimConfig &cfg,
                                     bool one_to_one)
    : _eq(eq), _fabric(topo, cfg, one_to_one), _routing(cfg.packetRouting),
      _routerLatency(cfg.routerLatency),
      _protocolDelay(cfg.scaleoutProtocolDelay),
      _freeAt(std::size_t(_fabric.numLinks()), 0),
      _maxHops(_fabric.maxRouteLength()),
      _validate(validationAtLeast(ValidateLevel::kBasic)),
      _busyUntil(_validate ? std::size_t(_fabric.numLinks()) : 0, 0),
      _metrics(cfg.netMetrics),
      _usage(std::size_t(_fabric.numLinks()))
{
    setEnergyParams(cfg.energy, cfg.flitWidthBits);

    const Topology &t = _fabric.topology();
    std::vector<std::string> names;
    std::vector<int> counts(std::size_t(t.numDims()), 0);
    for (int d = 0; d < t.numDims(); ++d)
        names.push_back(t.dim(d).name);
    for (LinkId l = 0; l < _fabric.numLinks(); ++l)
        ++counts[std::size_t(_fabric.link(l).dim)];
    setupUtilLanes(std::move(names), std::move(counts));
}

std::uint32_t
AnalyticalNetwork::allocTransfer()
{
    if (_freeTransfers.empty()) {
        const auto base = static_cast<std::uint32_t>(
            _transferChunks.size() * kTransferChunk);
        // Slab growth: amortized over every later reuse of the slots.
        _transferChunks.push_back(std::make_unique<Transfer[]>(kTransferChunk)); // astra-lint: allow(hot-path-alloc)
        _routes.resize(_transferChunks.size() * kTransferChunk * _maxHops);
        // Reverse order so the lowest new slot is handed out first.
        for (std::size_t i = kTransferChunk; i-- > 0;)
            _freeTransfers.push_back(base + static_cast<std::uint32_t>(i));
    }
    const std::uint32_t slot = _freeTransfers.back();
    _freeTransfers.pop_back();
    return slot;
}

Message
AnalyticalNetwork::releaseTransfer(std::uint32_t slot)
{
    Transfer &t = transferAt(slot);
    Message msg = std::move(t.msg);
    _freeTransfers.push_back(slot);
    return msg;
}

void
AnalyticalNetwork::send(Message msg)
{
    msg.sentAt = _eq.now();
    const std::uint32_t slot = allocTransfer();
    Transfer &t = transferAt(slot);
    t.msg = std::move(msg);
    t.hops = 0;
    t.next = 0;
    if (t.msg.src == t.msg.dst) {
        // Loopback: deliver on the next tick with no link usage (the
        // empty route makes the step a delivery).
        _eq.scheduleAfter(1, Step{this, slot});
        return;
    }
    _resolved.clear();
    _fabric.resolve(t.msg.src, t.msg.dst, t.msg.hint, _resolved);
    if (_resolved.size() > _maxHops)
        panic("route of %zu links exceeds the fabric bound %zu",
              _resolved.size(), _maxHops);
    std::copy(_resolved.begin(), _resolved.end(), routeOf(slot));
    t.hops = static_cast<std::uint32_t>(_resolved.size());
    // Transport-layer cost: messages leaving the pod pay the sender's
    // protocol-stack processing once (scale-out extension).
    if (_protocolDelay > 0 &&
        std::any_of(_resolved.begin(), _resolved.end(), [this](LinkId l) {
            return _fabric.link(l).cls == LinkClass::ScaleOut;
        })) {
        _eq.scheduleAfter(_protocolDelay, Step{this, slot});
        return;
    }
    step(slot, kNoLink);
}

void
AnalyticalNetwork::waitForLink(std::uint32_t slot, LinkId l, Tick now)
{
    const Tick free_at = _freeAt[std::size_t(l)];
    if (_metrics) {
        // The wait accrues in segments: a transfer pre-empted by an
        // earlier FIFO waiter re-enters here and adds the next leg.
        LinkUsage &u = _usage[std::size_t(l)];
        u.queueWait += free_at - now;
        _waitHist.record(static_cast<double>(free_at - now));
    }
    // Retry when the link frees up. FIFO order is preserved by the
    // event queue's deterministic tiebreak.
    _eq.schedule(free_at, Step{this, slot, l});
}

void
AnalyticalNetwork::step(std::uint32_t slot, LinkId wait)
{
    const Tick now = _eq.now();
    if (wait != kNoLink && _freeAt[std::size_t(wait)] > now) {
        // Pre-empted again by an earlier waiter: the transfer's slot
        // and route are not needed to wait once more.
        waitForLink(slot, wait, now);
        return;
    }
    Transfer &t = transferAt(slot);
    if (t.next == t.hops) {
        // Full message present at destination after serialization and
        // propagation.
        deliver(releaseTransfer(slot));
        return;
    }
    const LinkId l = routeOf(slot)[t.next];
    const LinkDesc &desc = _fabric.link(l);
    const LinkParams &p = _fabric.params(desc.cls);
    Tick &free_at = _freeAt[std::size_t(l)];
    if (free_at > now) {
        waitForLink(slot, l, now);
        return;
    }

    Tick tx = txTime(desc.cls, t.msg.bytes);
    if (FaultManager *fm = faults()) {
        // The analytical model serializes whole messages, so faults
        // apply per busy interval: a degraded link stretches the
        // interval by 1/factor, a down link parks the transfer until
        // the window ends, and a link down for the rest of the run
        // turns the transfer into a loss the retry machinery owns.
        // (Counted packet drops are garnet-lite only — this backend
        // has no packets to count.)
        const double factor = fm->bandwidthFactor(int(l), now);
        if (factor <= 0.0) {
            const Tick resume = fm->downUntil(int(l), now);
            if (resume == FaultPlan::kEnd) {
                notifyLoss(releaseTransfer(slot), int(l));
                return;
            }
            _eq.schedule(resume, Step{this, slot});
            return;
        }
        if (factor < 1.0)
            tx = static_cast<Tick>(
                std::ceil(static_cast<double>(tx) / factor));
    }
    const Tick start = now;
    if (_validate) {
        // Independent busy-interval ledger: the grant must start at or
        // after the previous transfer's end, and the two ledgers must
        // still agree at drain (validateDrain).
        validate::linkGrantNonOverlap(int(l), start,
                                      _busyUntil[std::size_t(l)]);
        _busyUntil[std::size_t(l)] = start + tx;
    }
    free_at = start + tx;
    accountHop(t.msg.bytes, desc.cls);
    if (_metrics) {
        LinkUsage &u = _usage[std::size_t(l)];
        u.busy += tx;
        u.bytes += t.msg.bytes;
        ++u.grants;
        _txHist.record(static_cast<double>(tx));
        addDimBusy(desc.dim, tx);
        maybeEmitUtilCounters(now);
    }

    Tick next_ready;
    if (++t.next == t.hops) {
        // Last link: the next step delivers.
        next_ready = start + tx + p.latency;
    } else if (_routing == PacketRouting::Software) {
        // Store-and-forward: entire message must arrive before the next
        // hop can begin.
        next_ready = start + tx + p.latency + _routerLatency;
    } else {
        // Virtual cut-through: the head moves on after the wire
        // latency; serialization overlaps across hops. The next link
        // still serializes the full message, so bandwidth is conserved.
        next_ready = start + p.latency + _routerLatency;
    }
    _eq.schedule(next_ready, Step{this, slot});
}

void
AnalyticalNetwork::exportStats(StatGroup &g, Tick elapsed) const
{
    NetworkApi::exportStats(g);
    g.set("backend", 0); // 0 = analytical, 1 = garnet-lite
    g.set("elapsed.ticks", double(elapsed));
    exportLinkUsage(_fabric, _usage, elapsed, g);
    g.histogramRef("hop.tx_time").merge(_txHist);
    g.histogramRef("hop.queue_wait").merge(_waitHist);
}

} // namespace astra

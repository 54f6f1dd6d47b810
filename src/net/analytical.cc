// astra-lint: hot-path (every analytical hop, retry and delivery event
// is scheduled here; transfers live in the SlotNetwork slab)
#include "net/analytical.hh"

#include "fault/fault.hh"
#include "net/validate.hh"

namespace astra
{

AnalyticalNetwork::AnalyticalNetwork(EventQueue &eq, const Topology &topo,
                                     const SimConfig &cfg,
                                     bool one_to_one)
    : SlotNetwork(eq, topo, cfg, one_to_one, NetworkBackend::Analytical),
      _routing(cfg.packetRouting),
      _freeAt(std::size_t(_fabric.numLinks()), 0),
      _busyUntil(_validate ? std::size_t(_fabric.numLinks()) : 0, 0)
{
}

void
AnalyticalNetwork::send(Message msg)
{
    const Admission a = admit(std::move(msg));
    slotAt(a.slot).next = 0;
    switch (a.departure) {
      case Departure::Loopback:
        // Deliver on the next tick with no link usage (the empty route
        // makes the step a delivery).
        _eq.scheduleAfter(1, Step{this, a.slot});
        return;
      case Departure::ProtocolDelay:
        _eq.scheduleAfter(_protocolDelay, Step{this, a.slot});
        return;
      case Departure::Now:
        step(a.slot, kNoLink);
        return;
    }
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
    AnalyticalTransfer &t = slotAt(slot);
    if (t.next == t.hops) {
        // Full message present at destination after serialization and
        // propagation.
        deliver(releaseSlot(slot));
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
    Tick resume = 0;
    if (!linkUp(l, now, tx, resume)) {
        // A down link parks the transfer until the window ends; one
        // down for the rest of the run turns it into a loss the retry
        // machinery owns. (Counted packet drops are garnet-lite only —
        // this backend has no packets to count.)
        if (resume == FaultPlan::kEnd)
            notifyLoss(releaseSlot(slot), int(l));
        else
            _eq.schedule(resume, Step{this, slot});
        return;
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
    chargeGrant(l, desc, t.msg.bytes, tx, now);
    if (_metrics)
        _txHist.record(static_cast<double>(tx));

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
AnalyticalNetwork::exportModelStats(StatGroup &g) const
{
    g.histogramRef("hop.tx_time").merge(_txHist);
    g.histogramRef("hop.queue_wait").merge(_waitHist);
}

} // namespace astra

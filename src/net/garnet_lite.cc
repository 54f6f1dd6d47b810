// astra-lint: hot-path (per-flit hop scheduling lives here; messages
// come from the SlotNetwork slab and packets from the allocPacket()
// arena, not the heap — the allow below marks the arena's growth)
#include "net/garnet_lite.hh"

#include <algorithm>
#include <cmath>

#include "fault/fault.hh"
#include "net/validate.hh"

namespace astra
{

GarnetLiteNetwork::GarnetLiteNetwork(EventQueue &eq, const Topology &topo,
                                     const SimConfig &cfg,
                                     bool one_to_one)
    : SlotNetwork(eq, topo, cfg, one_to_one, NetworkBackend::GarnetLite),
      _injection(cfg.injectionPolicy),
      _flitBytes(std::max(1, cfg.flitWidthBits / 8)),
      _bufferCapacityFlits(cfg.vcsPerVnet * cfg.buffersPerVc),
      _links(std::size_t(_fabric.numLinks())),
      _coalesce(cfg.netCoalesce)
{
    // flitTxTime() table. Packets are sized by their first link's class
    // and may cross links of another, so each class covers the largest
    // packet of any.
    int max_flits = 0;
    for (std::size_t c = 0; c < kLinkClasses; ++c)
        max_flits = std::max(
            max_flits, flitsOf(_fabric.params(LinkClass(c)).packetSize));
    _txFlits = std::min(std::size_t(max_flits) + 1, kMaxTxTableFlits);
    _txTime.resize(kLinkClasses * _txFlits);
    for (std::size_t c = 0; c < kLinkClasses; ++c) {
        for (std::size_t f = 0; f < _txFlits; ++f)
            _txTime[c * _txFlits + f] = computeTxTime(LinkClass(c), int(f));
    }
}

int
GarnetLiteNetwork::flitsOf(Bytes bytes) const
{
    const Bytes fb = static_cast<Bytes>(_flitBytes);
    return static_cast<int>(std::max<Bytes>(1, (bytes + fb - 1) / fb));
}

Tick
GarnetLiteNetwork::computeTxTime(LinkClass cls, int flits) const
{
    const LinkParams &p = _fabric.params(cls);
    const double bytes = static_cast<double>(flits) * _flitBytes;
    return static_cast<Tick>(
        std::ceil(bytes / (p.bandwidth * p.efficiency)));
}

void
GarnetLiteNetwork::send(Message msg)
{
    const Admission a = admit(std::move(msg));
    GarnetMessage &ms = slotAt(a.slot);
    ms.lost = false;
    ms.lostLink = -1;
    if (a.departure == Departure::Loopback) {
        _eq.scheduleAfter(1, Deliver{this, a.slot});
        return;
    }
    const Bytes pkt_size = _fabric.linkParams(routeOf(a.slot)[0]).packetSize;
    const int npackets = static_cast<int>(
        std::max<Bytes>(1, (ms.msg.bytes + pkt_size - 1) / pkt_size));
    ms.packetsLeft = npackets;
    ms.packetsUninjected = npackets;

    if (a.departure == Departure::ProtocolDelay) {
        _eq.scheduleAfter(_protocolDelay, Inject{this, a.slot});
        return;
    }
    inject(a.slot);
}

void
GarnetLiteNetwork::inject(std::uint32_t slot)
{
    if (_injection == InjectionPolicy::Aggressive) {
        // Only this loop injects an Aggressive message, so the count is
        // fixed up front: the last packet may complete the message (a
        // drop on a dead link) and free the slot for reuse.
        for (int n = slotAt(slot).packetsUninjected; n > 0; --n)
            injectNext(slot);
    } else {
        injectNext(slot);
    }
}

void
GarnetLiteNetwork::injectNext(std::uint32_t slot)
{
    GarnetMessage &ms = slotAt(slot);
    if (ms.packetsUninjected <= 0)
        return;
    const LinkId first = routeOf(slot)[0];
    const Bytes pkt_size = _fabric.linkParams(first).packetSize;
    const int idx = ms.packetsLeft - ms.packetsUninjected;
    --ms.packetsUninjected;

    // The final packet carries the remainder.
    Bytes remaining = ms.msg.bytes - Bytes(idx) * pkt_size;
    Bytes bytes = std::min(pkt_size, remaining);
    if (ms.msg.bytes == 0)
        bytes = 0; // zero-byte control message: one minimal packet

    Packet *pkt = allocPacket();
    pkt->msg = slot;
    pkt->hop = 0;
    pkt->bytes = bytes;
    pkt->flits = flitsOf(bytes);
    pkt->waitSince = _eq.now();
    pkt->creditStallSince = kTickInvalid;
    ++_injectedPackets;
    _injectedFlits += std::uint64_t(pkt->flits);

    _links[std::size_t(first)].push(pkt);
    pump(first);
}

void
GarnetLiteNetwork::schedulePump(LinkId l, Tick when)
{
    LinkState &ls = _links[std::size_t(l)];
    when = std::max(when, _eq.now());
    if (ls.pumpAt <= when)
        return; // an earlier (or equal) pump is already on the way
    ls.pumpAt = when;
    _eq.schedule(when, Pump{this, l});
}

void
GarnetLiteNetwork::pump(LinkId l)
{
    LinkState &ls = _links[std::size_t(l)];
    if (ls.pumpAt <= _eq.now())
        ls.pumpAt = kTickInvalid;
    const LinkDesc &desc = _fabric.link(l);
    const LinkParams &p = _fabric.params(desc.cls);

    while (ls.head) {
        PacketRef pkt = ls.head;

        // Credit check: room in the downstream input buffer?
        if (ls.bufferOcc + pkt->flits > _bufferCapacityFlits) {
            if (_metrics && pkt->creditStallSince == kTickInvalid)
                pkt->creditStallSince = _eq.now();
            return; // retried when credits are released
        }

        const Tick now = _eq.now();
        // `start` is when the wire begins serializing this packet.
        // Normally the pump runs at that instant (start == now); under
        // net-coalesce a busy link batch-grants future wire slots from
        // the current event instead of waking once per packet, but
        // only where that is ordering-equivalent: source-link grants
        // (no upstream credits to release at a specific time, no
        // injection-pacing side effect) on a fault-free run (fault
        // windows are sampled at grant time). Every per-packet time —
        // serialization start, arrival, queue-wait — still uses
        // `start`, so deliveries are bit-identical to the unbatched
        // schedule; only the pump wake-ups themselves are folded.
        Tick start = now;
        if (ls.freeAt > now) {
            const bool batchable =
                _coalesce && !faults() && pkt->hop == 0 &&
                (_injection == InjectionPolicy::Aggressive ||
                 slotAt(pkt->msg).packetsUninjected <= 0);
            if (!batchable) {
                schedulePump(l, ls.freeAt);
                return;
            }
            start = ls.freeAt;
        }

        Tick tx = flitTxTime(desc.cls, pkt->flits);
        Tick resume = 0;
        if (!linkUp(l, now, tx, resume)) {
            if (resume != FaultPlan::kEnd) {
                // Down window: everything queued here waits it out;
                // upstream backpressure follows from the credits they
                // keep holding.
                schedulePump(l, resume);
                return;
            }
            // Down for the rest of the run: the queue can never drain;
            // every waiter is a loss.
            while (ls.head)
                dropPacket(ls.pop(), l, now);
            return;
        }
        // Counted transient loss: the packet still serializes on the
        // wire (freeAt advances, energy is spent) but never enters the
        // downstream buffer.
        const bool dropped =
            faults() && faults()->shouldDropPacket(int(l), now);

        // Grant.
        ls.pop();
        ls.freeAt = start + tx;
        if (!dropped) {
            ls.bufferOcc += pkt->flits;
            if (_validate)
                validate::creditBounds(int(l), ls.bufferOcc,
                                       _bufferCapacityFlits);
            _peakOccupancy = std::max(_peakOccupancy, ls.bufferOcc);
        }
        chargeGrant(l, desc, pkt->bytes, tx, now);
        if (_metrics) {
            _usage[std::size_t(l)].queueWait += start - pkt->waitSince;
            if (pkt->creditStallSince != kTickInvalid) {
                _creditStall += start - pkt->creditStallSince;
                pkt->creditStallSince = kTickInvalid;
            }
            if (!dropped)
                _occHist.record(double(ls.bufferOcc));
        }

        if (dropped) {
            dropPacket(pkt, l, now);
            continue;
        }

        leaveHop(pkt, now);

        const Tick arrival = start + tx + p.latency + _routerLatency;
        _eq.schedule(arrival, Arrive{this, pkt, l});
    }
}

void
GarnetLiteNetwork::arrive(PacketRef pkt, LinkId l)
{
    const Tick now = _eq.now();
    if (_metrics)
        _hopLatency.record(static_cast<double>(now - pkt->waitSince));
    const std::uint32_t slot = pkt->msg;
    GarnetMessage &ms = slotAt(slot);
    if (++pkt->hop == ms.hops) {
        // Ejected at the destination NPU: credits return immediately.
        returnCredits(l, pkt->flits, now);
        ++_deliveredPackets;
        _retiredFlits += std::uint64_t(pkt->flits);
        recyclePacket(pkt);
        if (--ms.packetsLeft == 0) {
            // A message with any dropped packet is incomplete at the
            // destination no matter how many packets made it.
            const bool lost = ms.lost;
            const int lost_link = ms.lostLink;
            const Message msg = releaseSlot(slot);
            if (lost)
                notifyLoss(msg, lost_link);
            else
                deliver(msg);
        }
        return;
    }
    const LinkId next = routeOf(slot)[pkt->hop];
    pkt->waitSince = now;
    pkt->creditStallSince = kTickInvalid;
    _links[std::size_t(next)].push(pkt);
    pump(next);
}

void
GarnetLiteNetwork::returnCredits(LinkId l, int flits, Tick now)
{
    LinkState &ls = _links[std::size_t(l)];
    ls.bufferOcc -= flits;
    if (_validate)
        validate::creditBounds(int(l), ls.bufferOcc, _bufferCapacityFlits);
    schedulePump(l, now);
}

void
GarnetLiteNetwork::leaveHop(PacketRef pkt, Tick now)
{
    if (pkt->hop > 0)
        returnCredits(routeOf(pkt->msg)[pkt->hop - 1], pkt->flits, now);
    else if (_injection == InjectionPolicy::Normal)
        injectNext(pkt->msg); // paced: the next packet follows this one
}

void
GarnetLiteNetwork::dropPacket(PacketRef pkt, LinkId l, Tick now)
{
    ++_droppedPackets;
    _droppedFlits += std::uint64_t(pkt->flits);
    // The packet dies holding the previous link's buffer space, or at
    // its source link, where the injection pipeline keeps moving
    // exactly as for a granted packet.
    leaveHop(pkt, now);
    // The slot outlives the nested injection above: this packet still
    // counts in packetsLeft.
    const std::uint32_t slot = pkt->msg;
    GarnetMessage &ms = slotAt(slot);
    recyclePacket(pkt);
    if (!ms.lost) {
        ms.lost = true;
        ms.lostLink = int(l);
    }
    if (--ms.packetsLeft == 0) {
        const int lost_link = ms.lostLink;
        notifyLoss(releaseSlot(slot), lost_link);
    }
}

auto
GarnetLiteNetwork::allocPacket() -> Packet *
{
    if (_packetFree.empty()) {
        // Arena growth: amortized over every later reuse of the slot.
        _packetArena.push_back(std::make_unique<Packet>()); // astra-lint: allow(hot-path-alloc)
        return _packetArena.back().get();
    }
    Packet *pkt = _packetFree.back();
    _packetFree.pop_back();
    return pkt;
}

void
GarnetLiteNetwork::recyclePacket(Packet *pkt)
{
    _packetFree.push_back(pkt);
}

void
GarnetLiteNetwork::exportModelStats(StatGroup &g) const
{
    g.set("packets.injected", double(_injectedPackets));
    g.set("packets.retired", double(_deliveredPackets));
    g.set("flits.injected", double(_injectedFlits));
    g.set("flits.retired", double(_retiredFlits));
    if (_droppedPackets) {
        g.set("packets.dropped", double(_droppedPackets));
        g.set("flits.dropped", double(_droppedFlits));
    }
    g.set("credit.stall_ticks", double(_creditStall));
    g.set("buffer.peak_occupancy", double(_peakOccupancy));
    g.histogramRef("hop.latency").merge(_hopLatency);
    g.histogramRef("vc.occupancy").merge(_occHist);
}

} // namespace astra

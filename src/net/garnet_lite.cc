// astra-lint: hot-path (per-flit hop scheduling lives here; messages
// and packets come from the allocMessage() slab and the allocPacket()
// arena, not the heap — the two allows below mark their growth)
#include "net/garnet_lite.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "net/validate.hh"

namespace astra
{

GarnetLiteNetwork::GarnetLiteNetwork(EventQueue &eq, const Topology &topo,
                                     const SimConfig &cfg,
                                     bool one_to_one)
    : _eq(eq), _fabric(topo, cfg, one_to_one), _injection(cfg.injectionPolicy),
      _routerLatency(cfg.routerLatency),
      _flitBytes(std::max(1, cfg.flitWidthBits / 8)),
      _bufferCapacityFlits(cfg.vcsPerVnet * cfg.buffersPerVc),
      _protocolDelay(cfg.scaleoutProtocolDelay),
      _links(std::size_t(_fabric.numLinks())),
      _maxHops(_fabric.maxRouteLength()),
      _validate(validationAtLeast(ValidateLevel::kBasic)),
      _coalesce(cfg.netCoalesce),
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

std::uint32_t
GarnetLiteNetwork::allocMessage()
{
    if (_freeMessages.empty()) {
        const auto base = static_cast<std::uint32_t>(
            _messageChunks.size() * kMessageChunk);
        // Slab growth: amortized over every later reuse of the slots.
        _messageChunks.push_back(std::make_unique<MessageState[]>(kMessageChunk)); // astra-lint: allow(hot-path-alloc)
        _routes.resize(_messageChunks.size() * kMessageChunk * _maxHops);
        // Reverse order so the lowest new slot is handed out first.
        for (std::size_t i = kMessageChunk; i-- > 0;)
            _freeMessages.push_back(base + static_cast<std::uint32_t>(i));
    }
    const std::uint32_t slot = _freeMessages.back();
    _freeMessages.pop_back();
    return slot;
}

Message
GarnetLiteNetwork::releaseMessage(std::uint32_t slot)
{
    Message msg = std::move(messageAt(slot).msg);
    _freeMessages.push_back(slot);
    return msg;
}

void
GarnetLiteNetwork::send(Message msg)
{
    msg.sentAt = _eq.now();
    const std::uint32_t slot = allocMessage();
    MessageState &ms = messageAt(slot);
    ms.msg = std::move(msg);
    ms.hops = 0;
    ms.lost = false;
    ms.lostLink = -1;
    if (ms.msg.src == ms.msg.dst) {
        _eq.scheduleAfter(1, Deliver{this, slot});
        return;
    }
    _resolved.clear();
    _fabric.resolve(ms.msg.src, ms.msg.dst, ms.msg.hint, _resolved);
    if (_resolved.size() > _maxHops)
        panic("route of %zu links exceeds the fabric bound %zu",
              _resolved.size(), _maxHops);
    std::copy(_resolved.begin(), _resolved.end(), routeOf(slot));
    ms.hops = static_cast<std::uint32_t>(_resolved.size());
    const Bytes pkt_size = _fabric.linkParams(_resolved[0]).packetSize;
    const int npackets = static_cast<int>(
        std::max<Bytes>(1, (ms.msg.bytes + pkt_size - 1) / pkt_size));
    ms.packetsLeft = npackets;
    ms.packetsUninjected = npackets;

    if (_protocolDelay > 0 &&
        std::any_of(_resolved.begin(), _resolved.end(), [this](LinkId l) {
            return _fabric.link(l).cls == LinkClass::ScaleOut;
        })) {
        _eq.scheduleAfter(_protocolDelay, Inject{this, slot});
        return;
    }
    inject(slot);
}

void
GarnetLiteNetwork::inject(std::uint32_t slot)
{
    if (_injection == InjectionPolicy::Aggressive) {
        // Only this loop injects an Aggressive message, so the count is
        // fixed up front: the last packet may complete the message (a
        // drop on a dead link) and free the slot for reuse.
        for (int n = messageAt(slot).packetsUninjected; n > 0; --n)
            injectNext(slot);
    } else {
        injectNext(slot);
    }
}

void
GarnetLiteNetwork::injectNext(std::uint32_t slot)
{
    MessageState &ms = messageAt(slot);
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
                 messageAt(pkt->msg).packetsUninjected <= 0);
            if (!batchable) {
                schedulePump(l, ls.freeAt);
                return;
            }
            start = ls.freeAt;
        }

        Tick tx = flitTxTime(desc.cls, pkt->flits);
        bool dropped = false;
        if (FaultManager *fm = faults()) {
            const double factor = fm->bandwidthFactor(int(l), now);
            if (factor <= 0.0) {
                const Tick resume = fm->downUntil(int(l), now);
                if (resume != FaultPlan::kEnd) {
                    // Down window: everything queued here waits it
                    // out; upstream backpressure follows from the
                    // credits they keep holding.
                    schedulePump(l, resume);
                    return;
                }
                // Down for the rest of the run: the queue can never
                // drain; every waiter is a loss.
                while (ls.head)
                    dropPacket(ls.pop(), l, now);
                return;
            }
            if (factor < 1.0)
                tx = static_cast<Tick>(
                    std::ceil(static_cast<double>(tx) / factor));
            // Counted transient loss: the packet still serializes on
            // the wire (freeAt advances, energy is spent) but never
            // enters the downstream buffer.
            dropped = fm->shouldDropPacket(int(l), now);
        }

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
        accountHop(pkt->bytes, desc.cls);
        if (_metrics) {
            LinkUsage &u = _usage[std::size_t(l)];
            u.busy += tx;
            u.bytes += pkt->bytes;
            ++u.grants;
            u.queueWait += start - pkt->waitSince;
            if (pkt->creditStallSince != kTickInvalid) {
                _creditStall += start - pkt->creditStallSince;
                pkt->creditStallSince = kTickInvalid;
            }
            if (!dropped)
                _occHist.record(double(ls.bufferOcc));
            addDimBusy(desc.dim, tx);
            maybeEmitUtilCounters(now);
        }

        if (dropped) {
            dropPacket(pkt, l, now);
            continue;
        }

        if (pkt->hop > 0) {
            // Leaving the previous link's downstream buffer: release
            // those credits and let its waiters retry.
            const LinkId up = routeOf(pkt->msg)[pkt->hop - 1];
            _links[std::size_t(up)].bufferOcc -= pkt->flits;
            if (_validate)
                validate::creditBounds(int(up),
                                       _links[std::size_t(up)].bufferOcc,
                                       _bufferCapacityFlits);
            schedulePump(up, now);
        } else if (_injection == InjectionPolicy::Normal) {
            // Paced injection: next packet enters once this one has
            // been granted the first link.
            injectNext(pkt->msg);
        }

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
    MessageState &ms = messageAt(slot);
    if (++pkt->hop == ms.hops) {
        // Ejected at the destination NPU: credits return immediately.
        _links[std::size_t(l)].bufferOcc -= pkt->flits;
        if (_validate)
            validate::creditBounds(int(l),
                                   _links[std::size_t(l)].bufferOcc,
                                   _bufferCapacityFlits);
        schedulePump(l, now);
        ++_deliveredPackets;
        _retiredFlits += std::uint64_t(pkt->flits);
        recyclePacket(pkt);
        if (--ms.packetsLeft == 0) {
            // A message with any dropped packet is incomplete at the
            // destination no matter how many packets made it.
            const bool lost = ms.lost;
            const int lost_link = ms.lostLink;
            const Message msg = releaseMessage(slot);
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
GarnetLiteNetwork::dropPacket(PacketRef pkt, LinkId l, Tick now)
{
    ++_droppedPackets;
    _droppedFlits += std::uint64_t(pkt->flits);
    if (pkt->hop > 0) {
        // The packet dies holding the previous link's downstream
        // buffer space: reclaim those credits and wake its waiters.
        const LinkId up = routeOf(pkt->msg)[pkt->hop - 1];
        _links[std::size_t(up)].bufferOcc -= pkt->flits;
        if (_validate)
            validate::creditBounds(int(up),
                                   _links[std::size_t(up)].bufferOcc,
                                   _bufferCapacityFlits);
        schedulePump(up, now);
    } else if (_injection == InjectionPolicy::Normal) {
        // Dropped at its source link: keep the injection pipeline
        // moving exactly as a granted packet would have.
        injectNext(pkt->msg);
    }
    // The slot outlives the nested injection above: this packet still
    // counts in packetsLeft.
    const std::uint32_t slot = pkt->msg;
    MessageState &ms = messageAt(slot);
    recyclePacket(pkt);
    if (!ms.lost) {
        ms.lost = true;
        ms.lostLink = int(l);
    }
    if (--ms.packetsLeft == 0) {
        const int lost_link = ms.lostLink;
        notifyLoss(releaseMessage(slot), lost_link);
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
GarnetLiteNetwork::exportStats(StatGroup &g, Tick elapsed) const
{
    NetworkApi::exportStats(g);
    g.set("backend", 1); // 0 = analytical, 1 = garnet-lite
    g.set("elapsed.ticks", double(elapsed));
    exportLinkUsage(_fabric, _usage, elapsed, g);
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

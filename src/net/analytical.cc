#include "net/analytical.hh"

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

void
AnalyticalNetwork::send(Message msg)
{
    msg.sentAt = _eq.now();
    if (msg.src == msg.dst) {
        // Loopback: deliver on the next tick with no link usage.
        _eq.scheduleAfter(1, [this, msg] { deliver(msg); });
        return;
    }
    auto path = std::make_shared<std::vector<LinkId>>(
        _fabric.resolve(msg.src, msg.dst, msg.hint));
    // Transport-layer cost: messages leaving the pod pay the sender's
    // protocol-stack processing once (scale-out extension).
    Tick proto = 0;
    for (LinkId l : *path) {
        if (_fabric.link(l).cls == LinkClass::ScaleOut) {
            proto = _protocolDelay;
            break;
        }
    }
    if (proto > 0) {
        _eq.scheduleAfter(proto,
                          [this, msg = std::move(msg),
                           path = std::move(path)]() mutable {
                              hop(std::move(msg), std::move(path), 0);
                          });
        return;
    }
    hop(std::move(msg), std::move(path), 0);
}

void
AnalyticalNetwork::hop(Message msg,
                       std::shared_ptr<std::vector<LinkId>> path,
                       std::size_t idx)
{
    const LinkId l = (*path)[idx];
    const LinkDesc &desc = _fabric.link(l);
    const LinkParams &p = _fabric.params(desc.cls);
    Tick &free_at = _freeAt[std::size_t(l)];

    const Tick now = _eq.now();
    if (free_at > now) {
        if (_metrics) {
            // The wait accrues in segments: a transfer pre-empted by an
            // earlier FIFO waiter re-enters here and adds the next leg.
            LinkUsage &u = _usage[std::size_t(l)];
            u.queueWait += free_at - now;
            _waitHist.record(static_cast<double>(free_at - now));
        }
        // Link busy: retry when it frees up. FIFO order is preserved by
        // the event queue's deterministic tiebreak.
        _eq.schedule(free_at, [this, msg = std::move(msg),
                               path = std::move(path), idx]() mutable {
            hop(std::move(msg), std::move(path), idx);
        });
        return;
    }

    Tick tx = txTime(desc.cls, msg.bytes);
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
                notifyLoss(msg, int(l));
                return;
            }
            _eq.schedule(resume, [this, msg = std::move(msg),
                                  path = std::move(path), idx]() mutable {
                hop(std::move(msg), std::move(path), idx);
            });
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
    accountHop(msg.bytes, desc.cls);
    if (_metrics) {
        LinkUsage &u = _usage[std::size_t(l)];
        u.busy += tx;
        u.bytes += msg.bytes;
        ++u.grants;
        _txHist.record(static_cast<double>(tx));
        addDimBusy(desc.dim, tx);
        maybeEmitUtilCounters(now);
    }

    const bool last = (idx + 1 == path->size());
    if (last) {
        // Full message present at destination after serialization and
        // propagation.
        _eq.schedule(start + tx + p.latency,
                     [this, msg = std::move(msg)] { deliver(msg); });
        return;
    }

    Tick next_ready;
    if (_routing == PacketRouting::Software) {
        // Store-and-forward: entire message must arrive before the next
        // hop can begin.
        next_ready = start + tx + p.latency + _routerLatency;
    } else {
        // Virtual cut-through: the head moves on after the wire
        // latency; serialization overlaps across hops. The next link
        // still serializes the full message, so bandwidth is conserved.
        next_ready = start + p.latency + _routerLatency;
    }
    _eq.schedule(next_ready, [this, msg = std::move(msg),
                              path = std::move(path), idx]() mutable {
        hop(std::move(msg), std::move(path), idx + 1);
    });
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

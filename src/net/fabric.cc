#include "net/fabric.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "fault/fault.hh"

namespace astra
{

Fabric::Fabric(const Topology &topo, const SimConfig &cfg,
               bool one_to_one)
    : _topo(topo), _oneToOne(one_to_one), _local(cfg.local),
      _package(cfg.package), _scaleout(cfg.scaleout)
{
    const int nodes = topo.numNodes();
    auto addLink = [this](std::int32_t from, std::int32_t to,
                          const DimInfo &info, int d) {
        _links.push_back(LinkDesc{from, to, info.linkClass, d});
        return static_cast<LinkId>(_links.size() - 1);
    };

    int switch_ports = 0; // switch port allocator, above the node ids
    _dimRowBase.push_back(0);
    for (int d = 0; d < topo.numDims(); ++d) {
        const DimInfo &info = topo.dim(d);
        if (info.size >= 2 && info.pattern == DimPattern::Ring) {
            for (int ch = 0; ch < info.channels; ++ch) {
                for (NodeId u = 0; u < nodes; ++u)
                    _rows.push_back(
                        addLink(u, topo.ringNext(d, ch, u), info, d));
            }
        } else if (info.size >= 2) {
            // Switch dimension: every node connects to every global
            // switch of the dimension. Switch ports get ids above the
            // node id space, unique across dimensions.
            for (int s = 0; s < topo.numSwitches(d); ++s) {
                const std::int32_t port = nodes + switch_ports++;
                const std::size_t up = _rows.size();
                _rows.resize(up + 2 * std::size_t(nodes));
                for (NodeId u = 0; u < nodes; ++u) {
                    _rows[up + std::size_t(u)] = addLink(u, port, info, d);
                    _rows[up + std::size_t(nodes + u)] =
                        addLink(port, u, info, d);
                }
            }
        }
        _dimRowBase.push_back(static_cast<int>(_rows.size()) / nodes);
    }
}

void
Fabric::route(NodeId src, NodeId dst, const RouteHint &hint,
              std::vector<LinkId> &out) const
{
    if (src == dst)
        return;

    const int d = hint.dim;
    if (d < 0 || d >= _topo.numDims())
        panic("route: dimension %d out of range", d);
    const DimInfo &info = _topo.dim(d);

    // src and dst must differ only along dimension d.
    const Coord &cs = _topo.coordOf(src);
    const Coord &cd = _topo.coordOf(dst);
    for (int i = 0; i < 4; ++i) {
        if (i != d && cs[i] != cd[i]) {
            panic("route: %d -> %d not confined to dimension %d", src,
                  dst, d);
        }
    }

    if (info.pattern == DimPattern::Ring) {
        if (hint.channel < 0 || hint.channel >= rowCount(d))
            panic("route: no ring channel %d in dim %d", hint.channel, d);
        const LinkId *per_node = row(d, hint.channel);
        NodeId cur = src;
        int guard = info.size;
        while (cur != dst) {
            if (guard-- < 0)
                panic("route: ring walk did not terminate");
            LinkId l = per_node[std::size_t(cur)];
            out.push_back(l);
            cur = link(l).to;
        }
    } else {
        const int s = hint.channel;
        if (s < 0 || s >= _topo.numSwitches(d))
            panic("route: switch %d out of range in dim %d", s, d);
        out.push_back(row(d, 2 * s)[std::size_t(src)]);
        out.push_back(row(d, 2 * s + 1)[std::size_t(dst)]);
    }
}

void
Fabric::routeMapped(NodeId src, NodeId dst, int channel_seed,
                    std::vector<LinkId> &out) const
{
    if (src == dst)
        return;

    // Correct coordinates dimension by dimension, local dimension
    // first (it is the cheapest), using the seed to spread traffic
    // over the channels/switches of each dimension.
    NodeId cur = src;
    const Coord &target = _topo.coordOf(dst);
    for (int d = 0; d < _topo.numDims(); ++d) {
        if (_topo.coordOf(cur)[d] == target[d])
            continue;
        const NodeId next = _topo.peer(cur, d, target[d]);
        const int channels = _topo.dim(d).channels;
        const RouteHint hint{d, channel_seed % channels};
        route(cur, next, hint, out);
        cur = next;
    }
}

std::size_t
Fabric::maxRouteLength() const
{
    // A dimension-ordered route crosses each dimension at most once:
    // up to size-1 ring links, or a switch's up- and down-link.
    std::size_t n = 0;
    for (int d = 0; d < _topo.numDims(); ++d) {
        const DimInfo &info = _topo.dim(d);
        if (info.size >= 2)
            n += info.pattern == DimPattern::Ring ? std::size_t(info.size - 1)
                                                  : 2;
    }
    return n;
}

int
Fabric::hopCount(NodeId src, NodeId dst, const RouteHint &hint) const
{
    if (src == dst)
        return 0;
    const DimInfo &info = _topo.dim(hint.dim);
    if (info.pattern == DimPattern::Switch)
        return 2;
    return _topo.ringDistance(hint.dim, hint.channel, src,
                              _topo.rankInGroup(hint.dim, dst));
}

FabricNetwork::FabricNetwork(EventQueue &eq, const Topology &topo,
                             const SimConfig &cfg, bool one_to_one,
                             NetworkBackend kind)
    : _eq(eq), _fabric(topo, cfg, one_to_one),
      _routerLatency(cfg.routerLatency),
      _protocolDelay(cfg.scaleoutProtocolDelay),
      _maxHops(_fabric.maxRouteLength()),
      _validate(validationAtLeast(ValidateLevel::kBasic)),
      _metrics(cfg.netMetrics), _usage(std::size_t(_fabric.numLinks())),
      _kind(kind), _laneBusyAtEmit(std::size_t(topo.numDims()), 0)
{
    setEnergyParams(cfg.energy, cfg.flitWidthBits);
}

FabricNetwork::Departure
FabricNetwork::resolveRoute(const Message &msg, LinkId *row,
                            std::uint32_t *hops)
{
    *hops = 0;
    if (msg.src == msg.dst)
        return Departure::Loopback;
    _resolved.clear();
    _fabric.resolve(msg.src, msg.dst, msg.hint, _resolved);
    if (_resolved.size() > _maxHops)
        panic("route of %zu links exceeds the fabric bound %zu",
              _resolved.size(), _maxHops);
    std::copy(_resolved.begin(), _resolved.end(), row);
    *hops = static_cast<std::uint32_t>(_resolved.size());
    // Transport-layer cost: messages leaving the pod pay the sender's
    // protocol-stack processing once (scale-out extension).
    const bool scale_out =
        _protocolDelay > 0 &&
        std::any_of(_resolved.begin(), _resolved.end(), [this](LinkId l) {
            return _fabric.link(l).cls == LinkClass::ScaleOut;
        });
    return scale_out ? Departure::ProtocolDelay : Departure::Now;
}

bool
FabricNetwork::faultedGrant(LinkId l, Tick now, Tick &tx,
                            Tick &resume) const
{
    // Faults apply per busy interval: a degraded link stretches it by
    // 1/factor, and a down link grants nothing until its window ends.
    const FaultManager &fm = *faults();
    const double factor = fm.bandwidthFactor(int(l), now);
    if (factor <= 0.0) {
        resume = fm.downUntil(int(l), now);
        return false;
    }
    if (factor < 1.0)
        tx = ceilTicks(static_cast<double>(tx) / factor,
                       "degraded link busy time");
    return true;
}

void
FabricNetwork::emitUtilCounters(Tick now)
{
    const Tick window = now - _lastEmitAt;
    if (window == 0)
        return;
    const Topology &topo = _fabric.topology();
    LinkId l = 0;
    for (int d = 0; d < topo.numDims(); ++d) {
        // Links are numbered dimension by dimension.
        Tick busy = 0;
        int links = 0;
        for (; l < _fabric.numLinks() && _fabric.link(l).dim == d; ++l) {
            busy += _usage[std::size_t(l)].busy;
            ++links;
        }
        Tick &at_emit = _laneBusyAtEmit[std::size_t(d)];
        const double capacity = static_cast<double>(window) * links;
        _trace->counter(_tracePid, "net.util." + topo.dim(d).name, now,
                        safeDiv(static_cast<double>(busy - at_emit),
                                capacity));
        at_emit = busy;
    }
    _lastEmitAt = now;
    _nextCounterAt = now + kUtilCounterInterval;
}

void
FabricNetwork::exportStats(StatGroup &g) const
{
    const Tick elapsed = _eq.now();
    NetworkApi::exportStats(g);
    g.set("backend", double(_kind));
    g.set("elapsed.ticks", double(elapsed));

    const int nlinks = _fabric.numLinks();
    const Topology &topo = _fabric.topology();
    struct DimAgg
    {
        Tick busy = 0;
        Tick queueWait = 0;
        std::uint64_t bytes = 0;
        std::uint64_t grants = 0;
        int links = 0;
    };
    std::vector<DimAgg> dims(std::size_t(topo.numDims()));

    const double elapsed_d = static_cast<double>(elapsed);
    double util_sum = 0;
    std::uint64_t bytes_total = 0;
    for (LinkId l = 0; l < nlinks; ++l) {
        const LinkUsage &u = _usage[std::size_t(l)];
        const LinkDesc &desc = _fabric.link(l);
        DimAgg &agg = dims[std::size_t(desc.dim)];
        agg.busy += u.busy;
        agg.queueWait += u.queueWait;
        agg.bytes += u.bytes;
        agg.grants += u.grants;
        ++agg.links;
        bytes_total += u.bytes;

        const double util =
            safeDiv(static_cast<double>(u.busy), elapsed_d);
        util_sum += util;
        g.record("link.util.pct", util * 100.0);
        if (u.grants > 0)
            g.set(strprintf("link.%04d.util", int(l)), util);
    }

    for (std::size_t d = 0; d < dims.size(); ++d) {
        const DimAgg &agg = dims[d];
        if (agg.links == 0)
            continue;
        const std::string prefix = "dim." + topo.dim(int(d)).name + ".";
        g.set(prefix + "links", double(agg.links));
        g.set(prefix + "busy", double(agg.busy));
        g.set(prefix + "queue_wait", double(agg.queueWait));
        g.set(prefix + "bytes", double(agg.bytes));
        g.set(prefix + "grants", double(agg.grants));
        g.set(prefix + "util",
              safeDiv(static_cast<double>(agg.busy),
                      elapsed_d * agg.links));
    }

    g.set("links.total", double(nlinks));
    g.set("bytes.total", double(bytes_total));
    g.set("util.mean", nlinks > 0 ? util_sum / nlinks : 0.0);

    exportModelStats(g);
}

} // namespace astra

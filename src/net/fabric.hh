/**
 * @file
 * The physical scale-up fabric (unidirectional links and route
 * lookup) and the FabricNetwork base both network backends derive
 * from.
 *
 * Links are built from the logical topology with a one-to-one mapping
 * (the ASTRA-SIM default):
 *
 *  - every ring channel of a Ring dimension contributes one link per
 *    node (node -> its successor on that channel);
 *  - every global switch of a Switch dimension contributes, per node,
 *    an up-link (node -> switch) and a down-link (switch -> node).
 *
 * Ports are integers: 0..numNodes-1 are NPU endpoints, numNodes..
 * numNodes+numSwitches-1 are global switches.
 *
 * FabricNetwork holds everything a backend needs that is not its
 * timing model: the Fabric, the parameters both models read, per-link
 * usage tallies and the utilization trace lanes sampled from them,
 * route admission, grant accounting, the fault-window lookup and the
 * common metric export.
 * SlotNetwork adds the in-flight message slab over the backend's slot
 * state.
 */

// astra-lint: hot-path (every send admits through SlotNetwork::admit
// and every grant charges through FabricNetwork::chargeGrant)

#ifndef ASTRA_NET_FABRIC_HH
#define ASTRA_NET_FABRIC_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hh"
#include "net/network_api.hh"
#include "topo/topology.hh"

namespace astra
{

class TraceRecorder;

/** Dense link identifier. */
using LinkId = std::int32_t;

/** One unidirectional physical link. */
struct LinkDesc
{
    std::int32_t from; //!< source port (node or switch)
    std::int32_t to;   //!< destination port (node or switch)
    LinkClass cls;     //!< intra- or inter-package technology
    int dim;           //!< topology dimension the link belongs to
};

/**
 * Immutable physical fabric.
 */
class Fabric
{
  public:
    /**
     * @param topo  The *physical* topology the links are built from.
     * @param cfg   Link technology parameters.
     * @param one_to_one  True when the system layer's logical topology
     *        equals @p topo (the ASTRA-SIM default); route hints are
     *        then followed literally. False for logical-on-physical
     *        mapping (Sec. IV-B): hints only seed the channel choice
     *        and transfers are routed dimension-ordered through the
     *        physical fabric.
     */
    Fabric(const Topology &topo, const SimConfig &cfg,
           bool one_to_one = true);

    /** Is the logical view identical to the physical fabric? */
    bool oneToOne() const { return _oneToOne; }

    /**
     * Route a transfer under the configured mapping: route() when
     * one-to-one, routeMapped() otherwise. A negative hint.dim marks a
     * point-to-point transfer between arbitrary endpoints (pipeline
     * parallelism): those are always routed dimension-ordered.
     */
    std::vector<LinkId>
    resolve(NodeId src, NodeId dst, const RouteHint &hint) const
    {
        std::vector<LinkId> path;
        resolve(src, dst, hint, path);
        return path;
    }

    /** resolve(), appending the links to @p out (no allocation once
     *  @p out has the capacity). */
    void
    resolve(NodeId src, NodeId dst, const RouteHint &hint,
            std::vector<LinkId> &out) const
    {
        if (!_oneToOne || hint.dim < 0)
            routeMapped(src, dst, hint.channel, out);
        else
            route(src, dst, hint, out);
    }

    /**
     * Dimension-ordered route through the physical fabric between two
     * arbitrary endpoints; @p channel_seed selects ring channels and
     * switches deterministically.
     */
    std::vector<LinkId>
    routeMapped(NodeId src, NodeId dst, int channel_seed) const
    {
        std::vector<LinkId> path;
        routeMapped(src, dst, channel_seed, path);
        return path;
    }

    /** routeMapped(), appending the links to @p out. */
    void routeMapped(NodeId src, NodeId dst, int channel_seed,
                     std::vector<LinkId> &out) const;

    /** Number of links. */
    int numLinks() const { return static_cast<int>(_links.size()); }

    /** Descriptor for @p id. */
    const LinkDesc &
    link(LinkId id) const
    {
        return _links[std::size_t(id)];
    }

    /** Technology parameters for @p cls (from the SimConfig). */
    const LinkParams &
    params(LinkClass cls) const
    {
        switch (cls) {
          case LinkClass::Local: return _local;
          case LinkClass::Package: return _package;
          case LinkClass::ScaleOut: return _scaleout;
        }
        return _package; // unreachable
    }

    /** Shorthand: parameters of link @p id's class. */
    const LinkParams &
    linkParams(LinkId id) const
    {
        return params(link(id).cls);
    }

    /**
     * Physical route for a transfer from @p src to @p dst under
     * @p hint. Ring dimensions walk the hinted channel; Switch
     * dimensions go via the hinted global switch. @p src and @p dst
     * must belong to the same dimension-@p hint.dim group.
     * An empty route is returned when src == dst.
     */
    std::vector<LinkId>
    route(NodeId src, NodeId dst, const RouteHint &hint) const
    {
        std::vector<LinkId> path;
        route(src, dst, hint, path);
        return path;
    }

    /** route(), appending the links to @p out. */
    void route(NodeId src, NodeId dst, const RouteHint &hint,
               std::vector<LinkId> &out) const;

    /** Number of hops route() would take (without building it). */
    int hopCount(NodeId src, NodeId dst, const RouteHint &hint) const;

    /** Most links any route resolve() returns can have. */
    std::size_t maxRouteLength() const;

    const Topology &topology() const { return _topo; }

    /**
     * Ring channels dimension @p dim has links for: its channel count
     * for a Ring dimension of two or more nodes, else 0.
     */
    int
    ringChannels(int dim) const
    {
        return _topo.dim(dim).pattern == DimPattern::Ring
                   ? rowCount(dim)
                   : 0;
    }

    /**
     * Ring channel @p ch (< ringChannels(@p dim)) of dimension @p dim:
     * element n is the link leaving node n on that channel. The fault
     * layer uses it to find which channels a forever-down link
     * disables (FaultManager::bindRingChannel).
     */
    std::span<const LinkId>
    ringLinks(int dim, int ch) const
    {
        return {row(dim, ch), std::size_t(_topo.numNodes())};
    }

  private:
    /** Rows of dimension @p d: ring channels, or (up, down) switch pairs. */
    int
    rowCount(int d) const
    {
        return _dimRowBase[std::size_t(d) + 1] - _dimRowBase[std::size_t(d)];
    }

    /** Row @p i of dimension @p d: one link per node. */
    const LinkId *
    row(int d, int i) const
    {
        return _rows.data() +
               std::size_t(_dimRowBase[std::size_t(d)] + i) *
                   std::size_t(_topo.numNodes());
    }

    const Topology &_topo;
    bool _oneToOne;
    LinkParams _local;
    LinkParams _package;
    LinkParams _scaleout;
    /** Links, numbered dimension by dimension. */
    std::vector<LinkDesc> _links;

    /**
     * Dense link rows, numNodes links each, in dimension order: a Ring
     * dimension has one row per channel (the link leaving each node),
     * a Switch dimension an up-link row (node -> switch s) and a
     * down-link row (switch s -> node) per switch, at 2s and 2s+1.
     * Dimensions of fewer than two nodes have none.
     */
    std::vector<LinkId> _rows;
    /** Dimension d's rows are [_dimRowBase[d], _dimRowBase[d+1]). */
    std::vector<int> _dimRowBase;
};

/**
 * A network backend's shared base: the event queue, the Fabric, router
 * latency, the scale-out protocol delay, the net-metrics and
 * validation flags and the per-link usage tallies, plus the steps
 * every model takes alike — route admission (resolveRoute), grant
 * accounting (chargeGrant), the fault-window lookup (linkUp) and the
 * metric export. Backends derive through SlotNetwork.
 */
class FabricNetwork : public NetworkApi
{
  public:
    EventQueue &eventQueue() final { return _eq; }

    const Fabric &fabric() const { return _fabric; }

    /** Usage tallies of link @p id (zeroes when net-metrics is off). */
    const LinkUsage &
    linkUsage(LinkId id) const
    {
        return _usage[std::size_t(id)];
    }

    /**
     * Attach a trace recorder: grants emit throttled "ph":"C"
     * per-dimension link-utilization counters ("net.util.<dim>", one
     * sample per dimension at most every kUtilCounterInterval ticks)
     * into process lane @p pid. Observer-only (never schedules events).
     * Null detaches.
     */
    void
    setTrace(TraceRecorder *trace, int pid)
    {
        _trace = trace;
        _tracePid = pid;
    }

    /**
     * Publish the delivery/energy totals, the backend id, the elapsed
     * ticks (the current tick), link utilization and then the model's
     * own metrics (exportModelStats) into @p g:
     *  - one "link.<id>.util" counter per link that carried traffic
     *    (busy / elapsed, NaN-free via safeDiv);
     *  - per-dimension aggregates "dim.<name>.{busy,queue_wait,bytes,
     *    grants,links,util}" where utilization is total busy over the
     *    dimension's aggregate link-time;
     *  - a "link.util.pct" histogram over all links (percent, so the
     *    log2 buckets resolve the 0..100 range);
     *  - fabric-wide "links.total" / "bytes.total" / "util.mean".
     * Zero elapsed ticks yield 0.0 utilization, never NaN.
     */
    void exportStats(StatGroup &g) const final;

  protected:
    /**
     * @param one_to_one  False when @p topo is a physical fabric
     *        distinct from the system layer's logical topology
     *        (Sec. IV-B mapping); see Fabric::resolve.
     * @param kind  The backend, published as the "backend" metric.
     */
    FabricNetwork(EventQueue &eq, const Topology &topo,
                  const SimConfig &cfg, bool one_to_one,
                  NetworkBackend kind);

    /** How an admitted message leaves its source. */
    enum class Departure
    {
        Loopback,      //!< src == dst: delivered without links
        ProtocolDelay, //!< crosses a scale-out link: pays the delay first
        Now,           //!< enters its first link at once
    };

    /**
     * Resolve @p msg's route into @p row (room for _maxHops links),
     * bound-check it and set *@p hops to its length (0 for loopback).
     * @return how the message leaves its source.
     */
    Departure resolveRoute(const Message &msg, LinkId *row,
                           std::uint32_t *hops);

    /**
     * Account one grant of link @p l (descriptor @p desc) to @p bytes
     * for @p tx busy ticks at @p now: byte-hops and energy, and under
     * net-metrics the link's busy/bytes/grants tallies, which the
     * utilization lanes sample.
     */
    void
    chargeGrant(LinkId l, const LinkDesc &desc, Bytes bytes, Tick tx,
                Tick now)
    {
        accountHop(bytes, desc.cls);
        if (!_metrics)
            return;
        LinkUsage &u = _usage[std::size_t(l)];
        u.busy += tx;
        u.bytes += bytes;
        ++u.grants;
        if (_trace && now >= _nextCounterAt)
            emitUtilCounters(now);
    }

    /**
     * The fault plan's verdict on granting link @p l at @p now for
     * @p tx busy ticks. @return true when the link is up, with @p tx
     * stretched by its bandwidth factor; false when it is down, with
     * @p resume the tick its down window ends (FaultPlan::kEnd: never).
     * Always true without a fault plan.
     */
    bool
    linkUp(LinkId l, Tick now, Tick &tx, Tick &resume) const
    {
        return !faults() || faultedGrant(l, now, tx, resume);
    }

    /** The model's own metrics, published after the shared ones. */
    virtual void exportModelStats(StatGroup &g) const = 0;

    EventQueue &_eq;
    const Fabric _fabric;
    const Tick _routerLatency;
    const Tick _protocolDelay; //!< scale-out transport cost per message
    const std::size_t _maxHops; //!< Fabric::maxRouteLength()
    /** Incremental integrity checks on (level >= basic at build). */
    const bool _validate;
    // Observer-only instrumentation (see DESIGN.md): tallies written on
    // the grant and wait paths but never scheduled against.
    const bool _metrics;
    std::vector<LinkUsage> _usage;

  private:
    /** linkUp() under a fault plan. */
    bool faultedGrant(LinkId l, Tick now, Tick &tx, Tick &resume) const;

    /**
     * Emit one utilization sample per dimension: the busy ticks its
     * links gained since the last emission over their capacity in the
     * window.
     */
    void emitUtilCounters(Tick now);

    /** Ticks between consecutive utilization counter samples. */
    static constexpr Tick kUtilCounterInterval = 2048;

    const NetworkBackend _kind;
    std::vector<LinkId> _resolved; //!< resolve() scratch, reused

    TraceRecorder *_trace = nullptr; //!< null: no utilization lanes
    int _tracePid = 0;
    Tick _nextCounterAt = 0;
    Tick _lastEmitAt = 0;
    /** Per dimension: its links' busy ticks at the last emission. */
    std::vector<Tick> _laneBusyAtEmit;
};

/**
 * FabricNetwork plus the in-flight message slab over the backend's
 * slot state @p State, which holds at least `Message msg` and
 * `std::uint32_t hops` (the length of the slot's route row). Slots live
 * in chunks with stable addresses and are reused LIFO. Routes are one
 * buffer of _maxHops links per slot, grown with the slab, rather than
 * a vector per slot: admitting a message allocates nothing once the
 * slab has reached the peak in-flight count, and tearing the network
 * down frees no per-slot blocks, which the next Cluster build would
 * otherwise pay for as allocator consolidation (docs/performance.md).
 */
template <typename State>
class SlotNetwork : public FabricNetwork
{
  public:
    /** Messages sent but not yet delivered or lost. */
    std::size_t liveSlots() const { return slotCapacity() - _free.size(); }

    /** Slots ever allocated (slab capacity, whole chunks). */
    std::size_t
    slotCapacity() const
    {
        return _chunks.size() * kChunk;
    }

  protected:
    using FabricNetwork::FabricNetwork;

    /** A message's slot and how it leaves its source. */
    struct Admission
    {
        std::uint32_t slot;
        Departure departure;
    };

    /**
     * Take a slot for @p msg, stamped with the send time, and store its
     * resolved route; the backend fills the rest of its state.
     */
    Admission
    admit(Message msg)
    {
        msg.sentAt = _eq.now();
        const std::uint32_t slot = allocSlot();
        State &s = slotAt(slot);
        s.msg = std::move(msg);
        return {slot, resolveRoute(s.msg, routeOf(slot), &s.hops)};
    }

    State &
    slotAt(std::uint32_t slot)
    {
        return _chunks[slot >> kChunkBits][slot & (kChunk - 1)];
    }

    /** The route of @p slot (its first hops entries). */
    LinkId *
    routeOf(std::uint32_t slot)
    {
        return _routes.data() + std::size_t(slot) * _maxHops;
    }

    /**
     * Free @p slot and hand back its message, so a receiver or loss
     * handler that sends again can reuse the slot.
     */
    Message
    releaseSlot(std::uint32_t slot)
    {
        Message msg = std::move(slotAt(slot).msg);
        _free.push_back(slot);
        return msg;
    }

  private:
    /** Slab granularity: chunk addresses are stable. */
    static constexpr std::size_t kChunkBits = 6;
    static constexpr std::size_t kChunk = std::size_t(1) << kChunkBits;

    /** Take a free slot, growing the slab by a chunk when dry. */
    std::uint32_t
    allocSlot()
    {
        if (_free.empty()) {
            const auto base =
                static_cast<std::uint32_t>(_chunks.size() * kChunk);
            // Slab growth: amortized over every later reuse of the slots.
            _chunks.push_back(std::make_unique<State[]>(kChunk)); // astra-lint: allow(hot-path-alloc)
            _routes.resize(_chunks.size() * kChunk * _maxHops);
            // Reverse order so the lowest new slot is handed out first.
            for (std::size_t i = kChunk; i-- > 0;)
                _free.push_back(base + static_cast<std::uint32_t>(i));
        }
        const std::uint32_t slot = _free.back();
        _free.pop_back();
        return slot;
    }

    std::vector<std::unique_ptr<State[]>> _chunks;
    std::vector<std::uint32_t> _free; //!< LIFO free list
    std::vector<LinkId> _routes;      //!< _maxHops links per slot
};

} // namespace astra

#endif // ASTRA_NET_FABRIC_HH

/**
 * @file
 * Analytical link-level network backend.
 *
 * Each unidirectional link is a FIFO server: a message occupies it for
 * bytes / (bandwidth * efficiency) cycles, then propagates for the
 * link's latency. Multi-hop transfers advance hop-by-hop through
 * events, so congestion and queuing emerge naturally from link
 * occupancy — which is what produces the paper's queuing-delay effects
 * (e.g. the alltoall topology's higher queuing delay in Fig. 9).
 *
 * Two forwarding modes (parameter #14):
 *  - Software routing: store-and-forward at every hop (the endpoint
 *    relays whole messages). Used for all of the paper's experiments.
 *  - Hardware routing: virtual cut-through — the head claims each link
 *    as it arrives and serialization overlaps across hops.
 */

#ifndef ASTRA_NET_ANALYTICAL_HH
#define ASTRA_NET_ANALYTICAL_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "net/fabric.hh"
#include "net/network_api.hh"

namespace astra
{

/**
 * The analytical backend. Fast enough for 64-node, multi-MB sweeps.
 */
class AnalyticalNetwork : public NetworkApi
{
  public:
    /**
     * @param one_to_one  False when @p topo is a physical fabric
     *        distinct from the system layer's logical topology
     *        (Sec. IV-B mapping); see Fabric::resolve.
     */
    AnalyticalNetwork(EventQueue &eq, const Topology &topo,
                      const SimConfig &cfg, bool one_to_one = true);

    void send(Message msg) override;

    EventQueue &eventQueue() override { return _eq; }

    const Fabric &fabric() const { return _fabric; }

    /** Serialization time of @p bytes on a link of class @p cls. */
    Tick
    txTime(LinkClass cls, Bytes bytes) const
    {
        const LinkParams &p = _fabric.params(cls);
        return static_cast<Tick>(std::ceil(
            static_cast<double>(bytes) / (p.bandwidth * p.efficiency)));
    }

    /** Busy-until tick of link @p id (for tests). */
    Tick linkFreeAt(LinkId id) const { return _freeAt[std::size_t(id)]; }

    /** Usage tallies of link @p id (zeroes when net-metrics is off). */
    const LinkUsage &
    linkUsage(LinkId id) const
    {
        return _usage[std::size_t(id)];
    }

    /**
     * Publish link utilization (per link and per dimension),
     * serialization-time and queue-wait histograms, and the base
     * delivery/energy totals into @p g. @p elapsed is the observation
     * window (usually the cluster's final tick); zero yields 0.0
     * utilization, never NaN.
     */
    void exportStats(StatGroup &g, Tick elapsed) const;

    void
    exportStats(StatGroup &g) const override
    {
        exportStats(g, _eq.now());
    }

    /**
     * Register the analytical drain checker (busy-interval ledger
     * agreement) with @p reg. See src/net/validate.cc.
     */
    void registerCheckers(ValidatorRegistry &reg) override;

    /**
     * Drain-time invariants: no transfer slot is still live, and the
     * independent busy-until ledger agrees with the backend's own
     * per-link free-at state (checked only when the backend was
     * constructed with validation enabled). Raises an ASTRA_CHECK
     * diagnostic on violation.
     */
    void validateDrain() const;

    /** Transfers sent but not yet delivered or lost (for tests). */
    std::size_t
    liveTransfers() const
    {
        return _transferChunks.size() * kTransferChunk -
               _freeTransfers.size();
    }

  private:
    /**
     * One in-flight transfer: the message, the length of its resolved
     * route (stored at routeOf(slot)) and the index of the next link to
     * claim (hops once the last link is granted, so the next step
     * delivers).
     */
    struct Transfer
    {
        Message msg;
        std::uint32_t hops = 0;
        std::uint32_t next = 0;
    };

    /** Step::wait of a step that is not a link-busy retry. */
    static constexpr LinkId kNoLink = -1;

    /**
     * The event every transfer schedules — loopback, protocol delay,
     * hop, busy retry, down-window park and delivery alike. A busy
     * retry carries the link it waits on, so a wake-up that finds the
     * link still busy re-parks without touching the transfer. Two
     * words, so it is stored inline in the event slab (no heap per
     * event).
     */
    struct Step
    {
        AnalyticalNetwork *net;
        std::uint32_t slot;
        LinkId wait = kNoLink;

        void operator()() const { net->step(slot, wait); }
    };
    static_assert(sizeof(Step) == 16 && EventCallback::fitsInline<Step>());

    /** Transfer slab granularity: chunk addresses are stable. */
    static constexpr std::size_t kTransferChunkBits = 6;
    static constexpr std::size_t kTransferChunk =
        std::size_t(1) << kTransferChunkBits;

    Transfer &
    transferAt(std::uint32_t slot)
    {
        return _transferChunks[slot >> kTransferChunkBits]
                              [slot & (kTransferChunk - 1)];
    }

    /** The route of transfer @p slot (its first hops entries). */
    LinkId *
    routeOf(std::uint32_t slot)
    {
        return _routes.data() + std::size_t(slot) * _maxHops;
    }

    /** Take a free transfer slot, growing the slab by a chunk when dry. */
    std::uint32_t allocTransfer();

    /**
     * Free @p slot and hand back its message, so a receiver or loss
     * handler that sends again can reuse the slot.
     */
    Message releaseTransfer(std::uint32_t slot);

    /**
     * Advance transfer @p slot at the current time: deliver it when
     * every link is granted, else claim its next link (or wait for it)
     * and schedule the following step. @p wait is the link a busy
     * retry waits on (kNoLink otherwise); while it is still busy the
     * retry only re-parks.
     */
    void step(std::uint32_t slot, LinkId wait);

    /**
     * Park transfer @p slot until busy link @p l frees, accruing the
     * wait in the link's metrics.
     */
    void waitForLink(std::uint32_t slot, LinkId l, Tick now);

    EventQueue &_eq;
    Fabric _fabric;
    PacketRouting _routing;
    Tick _routerLatency;
    Tick _protocolDelay; //!< scale-out transport cost per message
    std::vector<Tick> _freeAt;

    // In-flight transfer slab with a LIFO free list.
    std::vector<std::unique_ptr<Transfer[]>> _transferChunks;
    std::vector<std::uint32_t> _freeTransfers;
    /**
     * Routes by slot, _maxHops (Fabric::maxRouteLength) links each,
     * grown with the slab. One buffer rather than a vector per slot:
     * resolving allocates nothing, and tearing the network down frees
     * no per-slot blocks, which the next Cluster build would otherwise
     * pay for as allocator consolidation (docs/performance.md).
     */
    std::size_t _maxHops;
    std::vector<LinkId> _routes;
    std::vector<LinkId> _resolved; //!< resolve() scratch, reused

    /**
     * Busy-interval non-overlap ledger (integrity layer): an
     * independently maintained copy of each link's busy-until tick,
     * advanced on the grant path and cross-checked against _freeAt at
     * drain. Empty (zero cost) unless validation was enabled when the
     * backend was constructed.
     */
    bool _validate;
    std::vector<Tick> _busyUntil;

    // Observer-only instrumentation (see DESIGN.md): tallies below are
    // written on the grant/busy paths but never scheduled against.
    bool _metrics;
    std::vector<LinkUsage> _usage;
    Histogram _txHist;   //!< per-grant serialization time, ticks
    Histogram _waitHist; //!< per-busy-retry queue wait segment, ticks
};

} // namespace astra

#endif // ASTRA_NET_ANALYTICAL_HH

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
 *
 * This file holds only the model: the per-link free-at ticks, the hop
 * step and the busy-link wait. The transfer slab, route admission,
 * grant accounting and fault windows come from FabricNetwork and
 * SlotNetwork (net/fabric.hh).
 */

#ifndef ASTRA_NET_ANALYTICAL_HH
#define ASTRA_NET_ANALYTICAL_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "net/fabric.hh"

namespace astra
{

/**
 * One in-flight analytical transfer: the message, the length of its
 * resolved route (SlotNetwork::routeOf) and the index of the next link
 * to claim (hops once the last link is granted, so the next step
 * delivers).
 */
struct AnalyticalTransfer
{
    Message msg;
    std::uint32_t hops = 0;
    std::uint32_t next = 0;
};

/**
 * The analytical backend. Fast enough for 64-node, multi-MB sweeps.
 */
class AnalyticalNetwork : public SlotNetwork<AnalyticalTransfer>
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

  private:
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

    /** Serialization-time and queue-wait histograms. */
    void exportModelStats(StatGroup &g) const override;

    PacketRouting _routing;
    std::vector<Tick> _freeAt;

    /**
     * Busy-interval non-overlap ledger (integrity layer): an
     * independently maintained copy of each link's busy-until tick,
     * advanced on the grant path and cross-checked against _freeAt at
     * drain. Empty (zero cost) unless validation was enabled when the
     * backend was constructed.
     */
    std::vector<Tick> _busyUntil;

    // Observer-only instrumentation (see DESIGN.md).
    Histogram _txHist;   //!< per-grant serialization time, ticks
    Histogram _waitHist; //!< per-busy-retry queue wait segment, ticks
};

} // namespace astra

#endif // ASTRA_NET_ANALYTICAL_HH

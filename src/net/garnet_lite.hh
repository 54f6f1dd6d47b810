/**
 * @file
 * "Garnet-lite": a packet-level network backend with credit-based
 * backpressure, standing in for the Garnet NoC simulator the paper
 * builds on (see DESIGN.md, substitution #1).
 *
 * Modelled mechanisms:
 *  - messages are packetized per link class (512 B intra-package,
 *    256 B inter-package by default — parameters #20/#21);
 *  - a packet serializes on a link for flits * flit-time, where a flit
 *    is flit-width bits (#19) and flit-time is derived from the link
 *    bandwidth; link efficiency (#17/#18) models header-flit overhead;
 *  - each link's downstream input buffer holds at most
 *    vcs-per-vnet * buffers-per-vc flits (#24/#28); packets wait for
 *    credits before being granted the link, giving real backpressure;
 *  - each hop adds router pipeline latency (#25) plus wire latency;
 *  - injection policy (#15): Aggressive injects every packet of a
 *    message at once; Normal paces injection one packet at a time.
 *
 * Not modelled (vs. real Garnet): per-VC allocation/arbitration within
 * a router and flit-by-flit wormhole interleaving. Packets are the
 * atomic scheduling unit. Tests cross-check this backend against the
 * analytical one on uncongested transfers.
 *
 * This file holds only the model: packets, credits, the link pump and
 * the per-class transmit table. The message slab, route admission,
 * grant accounting and fault windows come from FabricNetwork and
 * SlotNetwork (net/fabric.hh).
 */

#ifndef ASTRA_NET_GARNET_LITE_HH
#define ASTRA_NET_GARNET_LITE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "net/fabric.hh"

namespace astra
{

/**
 * One in-flight garnet-lite message: the message itself, the length of
 * its resolved route (SlotNetwork::routeOf; 0 for loopback) and its
 * packet counters.
 */
struct GarnetMessage
{
    Message msg;
    std::uint32_t hops = 0;
    int packetsLeft = 0;
    int packetsUninjected = 0; //!< for Normal injection pacing
    /**
     * Fault layer: some packet of this message was dropped, so the
     * message completes as a loss (notifyLoss) instead of a delivery
     * once the surviving packets retire.
     */
    bool lost = false;
    int lostLink = -1; //!< link of the first drop
};

/**
 * Packet-level backend with credits.
 */
class GarnetLiteNetwork : public SlotNetwork<GarnetMessage>
{
  public:
    /**
     * @param one_to_one  False when @p topo is a physical fabric
     *        distinct from the system layer's logical topology
     *        (Sec. IV-B mapping); see Fabric::resolve.
     */
    GarnetLiteNetwork(EventQueue &eq, const Topology &topo,
                      const SimConfig &cfg, bool one_to_one = true);

    void send(Message msg) override;

    /** Total packets that completed their route. */
    std::uint64_t deliveredPackets() const { return _deliveredPackets; }

    /** Packets the fault plan discarded (flit drop + credit reclaim). */
    std::uint64_t droppedPackets() const { return _droppedPackets; }

    /** Peak flit occupancy seen in any input buffer (for tests). */
    int peakBufferOccupancy() const { return _peakOccupancy; }

    /**
     * Packet objects ever allocated (pool high-water mark). Bounded by
     * the peak number of concurrently in-flight packets, not by the
     * delivered-packet count — the free-list test relies on this.
     */
    std::size_t allocatedPackets() const { return _packetArena.size(); }

    /** Total packets handed to the injection queues. */
    std::uint64_t injectedPackets() const { return _injectedPackets; }

    /** Total ticks packets spent blocked on downstream credits. */
    Tick creditStallTicks() const { return _creditStall; }

    /**
     * Register the garnet-lite drain checker (credit ledger + packet/
     * flit conservation) with @p reg. See src/net/validate.cc.
     */
    void registerCheckers(ValidatorRegistry &reg) override;

    /**
     * Drain-time invariants: all credits returned (every input buffer
     * empty), no packet waiting on any link, injected == retired for
     * packets and flits, and every arena Packet and every message slot
     * back on its free list.
     * Raises an ASTRA_CHECK diagnostic on violation.
     */
    void validateDrain() const;

  private:
    /**
     * One packet in flight. At any instant a packet is referenced from
     * exactly one place — either some link's waiting queue (threaded
     * through `next`) or the one Arrive event scheduled for it — so
     * packets are plain pointers into an arena owned by the network,
     * recycled through a free list instead of being heap-allocated per
     * packet. The parent message is a slot index: packets take no
     * reference counts.
     */
    struct Packet
    {
        Packet *next = nullptr; //!< next waiter on the same link
        std::uint32_t msg = 0;  //!< parent message slot
        std::uint32_t hop = 0;
        int flits = 0;
        Bytes bytes = 0;
        /** When the packet joined its current link's waiting queue. */
        Tick waitSince = 0;
        /** First credit-check failure on this hop (invalid: none). */
        Tick creditStallSince = kTickInvalid;
    };
    using PacketRef = Packet *;

    struct LinkState
    {
        Tick freeAt = 0;
        /** FIFO of waiting packets, linked through Packet::next. */
        PacketRef head = nullptr;
        PacketRef tail = nullptr;
        std::size_t waiting = 0; //!< queue length (drain check)
        int bufferOcc = 0; //!< flits queued in the downstream buffer
        /**
         * Earliest already-scheduled pump event (kTickInvalid: none).
         * Coalesces retries: without it every waiting packet would
         * schedule its own wake-up at freeAt, turning a busy link into
         * an O(n^2) event storm.
         */
        Tick pumpAt = kTickInvalid;

        void
        push(PacketRef pkt)
        {
            pkt->next = nullptr;
            if (tail)
                tail->next = pkt;
            else
                head = pkt;
            tail = pkt;
            ++waiting;
        }

        PacketRef
        pop()
        {
            PacketRef pkt = head;
            head = pkt->next;
            if (!head)
                tail = nullptr;
            --waiting;
            return pkt;
        }
    };

    // The events this backend schedules. Each is a couple of words, so
    // it is stored inline in the event slab (no heap per event).

    /** Try to grant the head waiter(s) of a link. */
    struct Pump
    {
        GarnetLiteNetwork *net;
        LinkId link;

        void operator()() const { net->pump(link); }
    };
    static_assert(EventCallback::fitsInline<Pump>());

    /** A packet fully arrived at the downstream end of a link. */
    struct Arrive
    {
        GarnetLiteNetwork *net;
        PacketRef pkt;
        LinkId link;

        void operator()() const { net->arrive(pkt, link); }
    };
    static_assert(EventCallback::fitsInline<Arrive>());

    /** Begin injecting a message after the scale-out protocol delay. */
    struct Inject
    {
        GarnetLiteNetwork *net;
        std::uint32_t slot;

        void operator()() const { net->inject(slot); }
    };
    static_assert(EventCallback::fitsInline<Inject>());

    /** Deliver a loopback message (no link usage). */
    struct Deliver
    {
        GarnetLiteNetwork *net;
        std::uint32_t slot;

        void operator()() const { net->deliver(net->releaseSlot(slot)); }
    };
    static_assert(EventCallback::fitsInline<Deliver>());

    /** Try to grant the head waiter(s) of link @p l. */
    void pump(LinkId l);

    /** Schedule pump(l) at @p when (coalesces duplicates). */
    void schedulePump(LinkId l, Tick when);

    /** Packet fully arrived at the downstream end of link @p l. */
    void arrive(PacketRef pkt, LinkId l);

    /**
     * Return @p flits credits to link @p l's downstream buffer and let
     * its waiters retry at @p now.
     */
    void returnCredits(LinkId l, int flits, Tick now);

    /**
     * @p pkt leaves its current hop for good (granted the next link,
     * or dropped there): release the previous link's credits it held,
     * or, at its source link under Normal injection, inject the
     * message's next packet.
     */
    void leaveHop(PacketRef pkt, Tick now);

    /**
     * Fault layer: discard @p pkt at link @p l. Reclaims the upstream
     * credits the packet held (or paces the next injection when it was
     * still at its source), marks the parent message lost, and fires
     * notifyLoss once the message's last packet has retired or
     * dropped. The single place dropped packets leave the network, so
     * credits are reclaimed exactly once.
     */
    void dropPacket(PacketRef pkt, LinkId l, Tick now);

    /** Begin injecting message @p slot (after any transport delay). */
    void inject(std::uint32_t slot);

    /** Inject the next not-yet-injected packet of message @p slot. */
    void injectNext(std::uint32_t slot);

    /** Flits in a packet of @p bytes. */
    int flitsOf(Bytes bytes) const;

    /** Serialization time of @p flits on a link of class @p cls. */
    Tick
    flitTxTime(LinkClass cls, int flits) const
    {
        if (std::size_t(flits) < _txFlits)
            return _txTime[std::size_t(cls) * _txFlits + std::size_t(flits)];
        return computeTxTime(cls, flits);
    }

    /** flitTxTime() from the link parameters (fills the table). */
    Tick computeTxTime(LinkClass cls, int flits) const;

    /** Take a Packet from the free list (grows the arena if dry). */
    Packet *allocPacket();

    /** Return a finished Packet to the free list. */
    void recyclePacket(Packet *pkt);

    /**
     * Per-hop latency and VC-occupancy histograms, credit-stall time,
     * and packet/flit injected-vs-retired counters.
     */
    void exportModelStats(StatGroup &g) const override;

    InjectionPolicy _injection;
    int _flitBytes;
    int _bufferCapacityFlits;
    std::vector<LinkState> _links;
    /**
     * flitTxTime() by (link class, flits): _txFlits entries per class,
     * covering every packet size the link classes can produce (up to
     * kMaxTxTableFlits; larger packets compute theirs).
     */
    static constexpr std::size_t kMaxTxTableFlits = 256;
    static constexpr std::size_t kLinkClasses = 3; //!< LinkClass values
    std::size_t _txFlits = 0;
    std::vector<Tick> _txTime;

    /** Every Packet ever allocated; owns the storage _packetFree and
     *  in-flight PacketRefs point into. */
    std::vector<std::unique_ptr<Packet>> _packetArena;
    std::vector<Packet *> _packetFree; //!< recycled, ready for reuse
    std::uint64_t _deliveredPackets = 0;
    std::uint64_t _droppedPackets = 0;
    std::uint64_t _droppedFlits = 0;
    int _peakOccupancy = 0;

    /**
     * Opt-in pump coalescing (net-coalesce, SimConfig::netCoalesce):
     * a busy source link batch-grants future wire slots from the
     * current pump event instead of waking once per packet. Delivery
     * times are unchanged; the retired-event stream (and so the event
     * digest) is not — see pump().
     */
    bool _coalesce;

    // Observer-only instrumentation (see DESIGN.md).
    std::uint64_t _injectedPackets = 0;
    std::uint64_t _injectedFlits = 0;
    std::uint64_t _retiredFlits = 0;
    Tick _creditStall = 0;   //!< total ticks blocked on credits
    Histogram _hopLatency;   //!< queue -> arrival time per hop, ticks
    Histogram _occHist;      //!< buffer occupancy at grant, flits
};

} // namespace astra

#endif // ASTRA_NET_GARNET_LITE_HH

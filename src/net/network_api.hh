/**
 * @file
 * The lightweight network interface the system layer programs against.
 *
 * The paper emphasizes that ASTRA-SIM is portable: it can sit on top of
 * any network simulator through a small interface that minimizes
 * changes on the network side (Sec. IV). This header is that
 * interface. Two backends implement it here — an analytical link-level
 * model and "garnet-lite", a packet/credit-level model standing in for
 * Garnet (see DESIGN.md for the substitution rationale).
 *
 * The system layer addresses the network with *logical* route hints
 * (dimension + channel); the backend resolves them onto physical links.
 */

#ifndef ASTRA_NET_NETWORK_API_HH
#define ASTRA_NET_NETWORK_API_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/types.hh"
#include "topo/topology.hh"

namespace astra
{

struct ChunkPayload;
class FaultManager;
class StatGroup;
class ValidatorRegistry;

/**
 * Per-link usage tallies, kept as plain integers so the hot path pays
 * a few adds per grant; they are folded into StatGroup metrics only
 * when exportStats() runs (see FabricNetwork::exportStats in
 * net/fabric.hh).
 */
struct LinkUsage
{
    Tick busy = 0;       //!< ticks the link spent serializing
    Tick queueWait = 0;  //!< ticks transfers waited for the link
    std::uint64_t bytes = 0;  //!< payload bytes carried
    std::uint64_t grants = 0; //!< transfers granted the link
};

/**
 * Logical routing hint: which topology dimension the transfer belongs
 * to and which channel (ring index for Ring dimensions, global-switch
 * index for Switch dimensions) it should use.
 */
struct RouteHint
{
    int dim = 0;
    int channel = 0;
};

/**
 * Demultiplexing tag carried by every message so the receiving node can
 * route it to the right collective algorithm instance.
 */
struct MessageTag
{
    StreamId stream = 0; //!< which chunk's collective
    std::int32_t phase = 0; //!< phase index within the multi-phase plan
    std::int32_t step = 0;  //!< algorithm step within the phase
    std::int32_t srcRank = 0; //!< sender's rank within the phase group
};

/**
 * A message in flight. `payload` carries the contribution-tracking
 * state (declared by the collective layer, opaque to the network);
 * `bytes` is what the network actually models. The payload is shared
 * because a ring all-gather relays the one it received.
 */
struct Message
{
    NodeId src = kNodeInvalid;
    NodeId dst = kNodeInvalid;
    Bytes bytes = 0;
    RouteHint hint;
    MessageTag tag;
    std::shared_ptr<const ChunkPayload> payload;
    Tick sentAt = 0; //!< stamped by the backend at send()
    /**
     * Transmission attempt: 0 for the original send, incremented by
     * the system layer's retry path each retransmission (fault layer).
     */
    std::int32_t attempt = 0;
};

/**
 * Abstract network backend.
 */
class NetworkApi
{
  public:
    /** Invoked at the destination when the full message has arrived. */
    using Receiver = std::function<void(const Message &)>;

    virtual ~NetworkApi() = default;

    /**
     * Inject @p msg at its source. Delivery is signalled through the
     * receiver registered for msg.dst. Never fails; backpressure shows
     * up as time.
     */
    virtual void send(Message msg) = 0;

    /** Register the (single) receiver callback for @p node. */
    void
    setReceiver(NodeId node, Receiver r)
    {
        if (node < 0 || std::size_t(node) >= _receivers.size())
            resizeReceivers(std::size_t(node) + 1);
        _receivers[std::size_t(node)] = std::move(r);
    }

    /**
     * Invoked when the fault layer discards a message instead of
     * delivering it: (message, link the loss happened on). The system
     * layer's timeout/retry machinery hangs off this.
     */
    using LossHandler = std::function<void(const Message &, int)>;

    /** Register the (single, cluster-wide) loss handler. */
    void setLossHandler(LossHandler h) { _lossHandler = std::move(h); }

    /**
     * Attach the fault schedule this backend must honor. Null (the
     * default) disables every fault hook: the backend's behavior is
     * bit-for-bit the no-fault simulation.
     */
    void setFaults(FaultManager *faults) { _faults = faults; }

    /** Messages the fault layer discarded (all attempts included). */
    std::uint64_t lostMessages() const { return _lostMessages; }

    /** The event queue all layers share. */
    virtual EventQueue &eventQueue() = 0;

    /** Current simulated time. */
    Tick now() { return eventQueue().now(); }

    /** Total messages delivered (for sanity checks). */
    std::uint64_t deliveredMessages() const { return _delivered; }

    /** Total bytes-times-links traversed (link load metric). */
    std::uint64_t byteHops() const { return _byteHops; }

    /** Accumulated interconnect energy (paper future work, ref [4]). */
    struct Energy
    {
        double localLinkPj = 0;    //!< intra-package wire energy
        double packageLinkPj = 0;  //!< inter-package wire energy
        double scaleoutLinkPj = 0; //!< inter-pod wire energy
        double routerPj = 0;       //!< router traversal energy

        double
        totalPj() const
        {
            return localLinkPj + packageLinkPj + scaleoutLinkPj +
                   routerPj;
        }

        double totalUj() const { return totalPj() * 1e-6; }
    };

    /** Energy consumed by all traffic so far. */
    const Energy &energy() const { return _energy; }

    /**
     * Fold the backend's metrics into @p g. The base implementation
     * publishes delivery/energy totals; backends extend it with link
     * usage and backend-specific histograms.
     */
    virtual void exportStats(StatGroup &g) const;

    /**
     * Register the backend's drain-time invariant checkers with the
     * Cluster's registry (integrity layer, docs/validation.md). The
     * base implementation registers none.
     */
    virtual void registerCheckers(ValidatorRegistry &reg) { (void)reg; }

  protected:
    /** Configure the energy model (called by backend constructors). */
    void
    setEnergyParams(const EnergyParams &params, int flit_bits)
    {
        _eparams = params;
        _flitBits = flit_bits;
    }

    /** Hand a fully-arrived message to its destination's receiver. */
    void deliver(const Message &msg);

    /**
     * Record a fault-layer loss of @p msg on @p link and notify the
     * registered loss handler (if any). Backends call this instead of
     * deliver() when the plan discarded the message.
     */
    void notifyLoss(const Message &msg, int link);

    /** The attached fault schedule (null = no faults). */
    FaultManager *faults() const { return _faults; }

    /** Account @p bytes crossing one link of class @p cls. */
    void
    accountHop(Bytes bytes, LinkClass cls)
    {
        _byteHops += bytes;
        const double bits = static_cast<double>(bytes) * 8;
        switch (cls) {
          case LinkClass::Local:
            _energy.localLinkPj += bits * _eparams.localPjPerBit;
            break;
          case LinkClass::Package:
            _energy.packageLinkPj += bits * _eparams.packagePjPerBit;
            break;
          case LinkClass::ScaleOut:
            _energy.scaleoutLinkPj += bits * _eparams.scaleoutPjPerBit;
            break;
        }
        const double flits =
            _flitBits > 0 ? bits / _flitBits : 0.0;
        _energy.routerPj += flits * _eparams.routerPjPerFlit;
    }

  private:
    void resizeReceivers(std::size_t n) { _receivers.resize(n); }

    std::vector<Receiver> _receivers;
    LossHandler _lossHandler;
    FaultManager *_faults = nullptr;
    std::uint64_t _lostMessages = 0;
    std::uint64_t _delivered = 0;
    std::uint64_t _byteHops = 0;
    Energy _energy;
    EnergyParams _eparams;
    int _flitBits = 0;
};

} // namespace astra

#endif // ASTRA_NET_NETWORK_API_HH

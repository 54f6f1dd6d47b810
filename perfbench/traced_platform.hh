/**
 * @file
 * A simulated platform wired by hand for the traced benchmark run.
 *
 * It is built from the same public constructors Cluster uses (Topology,
 * the configured network backend, one Sys per NPU), with one addition:
 * a forwarding NetworkApi between every Sys and the backend. Sys
 * reaches the network only through setReceiver, send and eventQueue,
 * so the forwarder sees every send and every delivery and can time
 * them. It schedules no events of its own, so the retired-event
 * stream, and with it the determinism digest, is that of the untraced
 * Cluster run.
 *
 * Only what the benchmark's workloads use is mirrored: fault plans,
 * trace files, mapped physical topologies and run budgets are
 * rejected at construction.
 */

#ifndef PERFBENCH_TRACED_PLATFORM_HH
#define PERFBENCH_TRACED_PLATFORM_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "core/sys.hh"
#include "net/network_api.hh"
#include "span_tracer.hh"
#include "topo/topology.hh"

namespace perfbench
{

/** Times every send and delivery crossing the Sys <-> backend seam. */
class ForwardingNetwork final : public astra::NetworkApi
{
  public:
    ForwardingNetwork(astra::NetworkApi &backend, int nodes,
                      SpanTracer &tracer);

    void send(astra::Message msg) override;

    astra::EventQueue &eventQueue() override
    {
        return _backend.eventQueue();
    }

  private:
    astra::NetworkApi &_backend;
    SpanTracer &_tracer;
};

class TracedPlatform
{
  public:
    TracedPlatform(const astra::SimConfig &cfg, SpanTracer &tracer);

    TracedPlatform(const TracedPlatform &) = delete;
    TracedPlatform &operator=(const TracedPlatform &) = delete;

    astra::EventQueue &eventQueue() { return _eq; }
    int numNodes() const { return _topo.numNodes(); }
    astra::Sys &node(astra::NodeId id) { return *_nodes.at(std::size_t(id)); }

    /** The backend (its counters: delivered, byte-hops, energy). */
    const astra::NetworkApi &network() const { return *_backend; }

    /**
     * Cluster::runCollective: issue @p req on every node (each issue
     * in a sys.issue span), drain the queue, all inside one loop span.
     * @return the cluster-wide communication time.
     */
    astra::Tick runCollective(const astra::CollectiveRequest &req);

    /** Cluster::exportMetrics for a fault-free, unbudgeted platform. */
    astra::MetricRegistry exportMetrics() const;

    /** No stream or point-to-point receive left unfinished. */
    bool drained() const;

  private:
    astra::SimConfig _cfg;
    astra::EventQueue _eq;
    astra::Topology _topo;
    std::unique_ptr<astra::NetworkApi> _backend;
    std::unique_ptr<ForwardingNetwork> _net;
    std::vector<std::unique_ptr<astra::Sys>> _nodes;
    SpanTracer &_tracer;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_PLATFORM_HH

/**
 * @file
 * Cluster — owns one complete simulated platform: the event queue, the
 * logical topology, the network backend selected by the configuration,
 * and one Sys per NPU.
 *
 * Benchmarks, tests and examples use this to run collectives without
 * hand-wiring the layers; the workload layer builds on it for full
 * training runs.
 */

#ifndef ASTRA_CORE_CLUSTER_HH
#define ASTRA_CORE_CLUSTER_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/validate.hh"
#include "core/sys.hh"
#include "fault/fault.hh"
#include "net/fabric.hh"
#include "topo/topology.hh"

namespace astra
{

/**
 * A fully wired simulated platform.
 */
class Cluster
{
  public:
    explicit Cluster(const SimConfig &cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    const SimConfig &config() const { return _cfg; }
    EventQueue &eventQueue() { return _eq; }

    /** The logical topology the system layer runs against. */
    const Topology &topology() const { return _topo; }

    /**
     * The physical topology the fabric is built from — identical to
     * topology() unless the configuration maps the logical view onto
     * a distinct physical network (Sec. IV-B, physical-topology=...).
     */
    const Topology &physicalTopology() const
    {
        return _physTopo ? *_physTopo : _topo;
    }

    NetworkApi &network() { return *_net; }
    int numNodes() const { return _topo.numNodes(); }
    Sys &node(NodeId id) { return *_nodes.at(std::size_t(id)); }

    /**
     * Issue the same collective on every node (per-node handles in
     * node order). The cluster-wide completion time is the max of the
     * per-node completedAt values.
     */
    std::vector<std::shared_ptr<CollectiveHandle>>
    issueAll(const CollectiveRequest &req);

    /**
     * Drain all events. @return final simulated time. When the runtime
     * validation level is at least basic, every registered drain-time
     * checker (event queue, network backend, per-node schedulers) runs
     * after the queue empties; a violated invariant is fatal.
     *
     * The loop is supervised (docs/robustness.md): the configuration's
     * run budgets (max-events / max-sim-time / max-slab-bytes), the
     * progress watchdog (watchdog-window) and the cooperative
     * interrupt flag (guard::interruptRequested) are checked at slice
     * boundaries. A tripped run returns early with outcome()
     * BudgetExceeded / Deadlocked / Interrupted and a FailureRecord
     * naming the tripped ceiling; partial metrics and the digest
     * accumulated so far remain valid.
     */
    Tick run();

    /**
     * Retired-event-stream digest (determinism auditor). Zero unless
     * SimConfig::digest enabled accumulation at construction; two runs
     * of the same configuration must produce identical values.
     */
    std::uint64_t digest() const { return _eq.digest(); }

    /** The drain-time checker registry (for tests). */
    const ValidatorRegistry &validators() const { return _validators; }

    // --- fault layer (docs/faults.md) ---------------------------------

    /** The fault schedule, or nullptr when the plan is empty. */
    const FaultManager *faults() const { return _faults.get(); }

    /**
     * How the last run() ended. Completed unless a fault plan degraded
     * or deadlocked the run, a run budget tripped (BudgetExceeded),
     * the progress watchdog fired (Deadlocked with a "watchdog:"
     * record), or a cooperative interrupt drained it (Interrupted) —
     * see docs/robustness.md for the taxonomy.
     */
    RunOutcome outcome() const { return _outcome; }

    /** One record per retries-exhausted send (Degraded runs). */
    const std::vector<FailureRecord> &failures() const
    {
        return _failures;
    }

    /**
     * Convenience: issue @p kind of @p bytes on every node, run to
     * completion and return the cluster-wide communication time
     * (max completedAt - issue time).
     */
    Tick runCollective(CollectiveKind kind, Bytes bytes,
                       std::vector<int> dims = {}, int set_splits = 0);

    /**
     * Every node's NodeStats folded slot by slot in node order, then
     * named once (the "sys" group of exportMetrics).
     */
    StatGroup aggregateStats() const;

    /**
     * Snapshot the whole platform's metrics as one registry:
     *  - "sys": aggregateStats() (queue/network delays, chunk latency
     *    histograms, issued/completed totals);
     *  - "net": the backend's exportStats (per-link utilization,
     *    backend-specific histograms, energy);
     *  - "cluster": elapsed ticks, executed events, node count.
     * This is what --report-json serializes.
     */
    MetricRegistry exportMetrics() const;

    /** The trace recorder, or nullptr when tracing is disabled. */
    TraceRecorder *trace() { return _trace.get(); }

    /** Write the trace to the configured trace-file (if any). */
    void flushTrace();

  private:
    /** Recompute _outcome after the event queue drains. */
    void refreshOutcome();

    /** Sum of every node's progress counter (watchdog heartbeat). */
    std::uint64_t progressSum() const;

    /** End the run early: set @p outcome and record @p reason. */
    void trip(RunOutcome outcome, const std::string &reason);

    SimConfig _cfg;
    EventQueue _eq;
    Topology _topo; //!< logical
    std::unique_ptr<Topology> _physTopo; //!< set when mapping is on
    std::unique_ptr<FabricNetwork> _net;
    std::vector<std::unique_ptr<Sys>> _nodes;
    std::unique_ptr<TraceRecorder> _trace;
    ValidatorRegistry _validators;
    std::unique_ptr<FaultManager> _faults; //!< null = empty plan
    RunOutcome _outcome = RunOutcome::Completed;
    std::vector<FailureRecord> _failures;
};

} // namespace astra

#endif // ASTRA_CORE_CLUSTER_HH

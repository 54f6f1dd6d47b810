/**
 * @file
 * The workload layer: the distributed training loop (Sec. IV-A).
 *
 * Every NPU runs an identical synchronous-training loop over the
 * workload's layers, for num-passes iterations (NodeTrainer::body):
 *
 *   forward, layer 0..L-1:
 *     - wait for the layer's weight-gradient collective from the
 *       previous iteration (data/hybrid parallelism) — time spent
 *       blocked here is *exposed* communication;
 *     - apply the local weight update (update-time x size);
 *     - run the forward compute;
 *     - model/hybrid: exchange output activations (blocking).
 *   backward, layer L-1..0:
 *     - compute the input gradient (layers > 0) and exchange it
 *       (model/hybrid, blocking);
 *     - compute the weight gradient;
 *     - issue the weight-gradient collective *asynchronously* and move
 *       on — this is the compute/communication overlap the paper's
 *       scheduling discussion (Sec. III-E) revolves around.
 *
 * After the final pass the loop waits for all outstanding collectives
 * (the weights must be consistent), so trailing communication is
 * exposed — prominently the first layer's, which has no compute left
 * to hide behind.
 *
 * Communication slots map to dimension groups by parallelism:
 * weight gradients travel over the *data* dimensions, activations and
 * input gradients over the *model* dimensions. DATA uses all
 * dimensions as data dims; MODEL uses all as model dims; HYBRID
 * defaults to the paper's Transformer setup (model-parallel across
 * vertical, data-parallel across the rest) and is overridable.
 */

#ifndef ASTRA_WORKLOAD_TRAINER_HH
#define ASTRA_WORKLOAD_TRAINER_HH

#include <vector>

#include "workload/node_program.hh"

namespace astra
{

/** Options of one training run. */
struct TrainerOptions
{
    int numPasses = 1;
    /**
     * Compute-power multiplier relative to the baseline accelerator
     * (Fig. 18): 2.0 halves every compute delay.
     */
    double computeScale = 1.0;
    /** Dimension groups; empty = derive from the parallelism kind. */
    std::vector<int> dataDims;
    std::vector<int> modelDims;
};

/** Per-layer timing results, totals across all passes. */
struct LayerRunStats
{
    Tick compute = 0;   //!< compute + local-update cycles
    Tick commFwd = 0;   //!< raw forward-activation comm latency
    Tick commIg = 0;    //!< raw input-gradient comm latency
    Tick commWg = 0;    //!< raw weight-gradient comm latency
    Tick exposed = 0;   //!< time the loop sat blocked on this layer

    Tick commTotal() const { return commFwd + commIg + commWg; }
};

/**
 * The training loop of one NPU.
 */
class NodeTrainer : public NodeProgram
{
  public:
    NodeTrainer(Sys &sys, const WorkloadSpec &spec,
                const TrainerOptions &opts,
                std::function<void()> on_finish);

    const std::vector<LayerRunStats> &layerStats() const { return _stats; }

    /** Sum of exposed comm across layers. */
    Tick totalExposed() const;

    /** Sum of compute across layers. */
    Tick totalCompute() const;

  private:
    Schedule body() override;

    /** Issue @p slot's collective for layer @p l; null if none. */
    std::shared_ptr<CollectiveHandle> issue(std::size_t l, CommSlot slot);

    /**
     * Account a settled @p slot collective of layer @p l: time spent
     * @p blocked on it is exposed communication, its latency is added
     * to the slot's total. @return the local update delay it incurs.
     */
    Tick settled(std::size_t l, CommSlot slot,
                 const std::shared_ptr<CollectiveHandle> &handle,
                 std::optional<Tick> blocked);

    /** Busy the NPU for @p cycles of compute charged to layer @p l. */
    Busy compute(std::size_t l, Tick cycles);

    /** Compute delay under the compute-power scale. */
    Tick scaled(Tick base) const;

    const WorkloadSpec &_spec;
    TrainerOptions _opts;

    std::vector<int> _dataDims;
    std::vector<int> _modelDims;

    std::vector<LayerRunStats> _stats;
};

/**
 * A cluster-wide training run: one NodeTrainer per NPU.
 */
class WorkloadRun : public NodeRun<NodeTrainer, TrainerOptions>
{
  public:
    using NodeRun::NodeRun;

    const NodeTrainer &trainer(NodeId n) const
    {
        return *_nodes.at(std::size_t(n));
    }

    /** Node 0's per-layer stats (nodes are symmetric). */
    const std::vector<LayerRunStats> &layerStats() const
    {
        return _nodes.front()->layerStats();
    }

    /** Exposed-communication ratio: exposed / makespan (Fig. 17/18). */
    double exposedRatio() const;
    /** Compute ratio: compute / makespan. */
    double computeRatio() const;

    /**
     * Publish the run's workload-level metrics into @p g: makespan and
     * ratios, plus node 0's per-layer compute / per-slot communication
     * / exposed-communication totals under "layer<N>.<name>.*" keys.
     * Call after run().
     */
    void exportStats(StatGroup &g) const;
};

} // namespace astra

#endif // ASTRA_WORKLOAD_TRAINER_HH

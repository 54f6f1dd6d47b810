/**
 * @file
 * Pipelined parallelism (the third strategy of Sec. III-A).
 *
 * The paper lists pipelined parallelism among the partitioning
 * strategies but evaluates only data/model/hybrid; this module
 * implements it as the natural extension. GPipe-style schedule
 * (PipelineNode::body):
 *
 *  - the layers are partitioned contiguously into S stages, S being
 *    the size of one topology dimension (the *pipeline dimension*);
 *    a node's stage is its coordinate along that dimension;
 *  - the per-NPU minibatch is split into M microbatches; stage s
 *    forwards microbatch m as soon as it has received its input
 *    activations from stage s-1 (point-to-point transfer through the
 *    fabric), then back-propagates in reverse order with gradients
 *    flowing stage s+1 -> s;
 *  - after the flush, each stage all-reduces its weight gradients
 *    across the remaining (data-parallel) dimensions and the next
 *    pass begins.
 *
 * The run reports, per stage, compute time, point-to-point exchange
 * wait ("bubble" time) and weight-gradient collective latency — the
 * pipeline-bubble ratio is the headline metric.
 */

#ifndef ASTRA_WORKLOAD_PIPELINE_HH
#define ASTRA_WORKLOAD_PIPELINE_HH

#include <vector>

#include "workload/node_program.hh"

namespace astra
{

/** Options of a pipeline-parallel training run. */
struct PipelineOptions
{
    int numPasses = 1;
    int microbatches = 4;
    /**
     * Topology dimension used as the pipeline axis; -1 picks the
     * largest inter-package dimension.
     */
    int pipelineDim = -1;
    double computeScale = 1.0;
    /**
     * Bytes of activations crossing each stage boundary per full
     * minibatch; 0 derives them from the boundary layer's forward
     * communication size (falling back to 1 MiB).
     */
    Bytes activationBytes = 0;
};

/** Per-stage results (identical across a stage's data-parallel group). */
struct StageStats
{
    Tick compute = 0;  //!< busy cycles
    Tick bubble = 0;   //!< stalled waiting for activations/gradients
    Tick commWg = 0;   //!< weight-gradient all-reduce latency
    int layers = 0;    //!< layers assigned to the stage
};

/**
 * One node's pipeline schedule execution.
 */
class PipelineNode : public NodeProgram
{
  public:
    PipelineNode(Sys &sys, const WorkloadSpec &spec,
                 const PipelineOptions &opts,
                 std::function<void()> on_finish);

    int stage() const { return _stage; }
    int numStages() const { return _numStages; }
    const StageStats &stats() const { return _stats; }

  private:
    Schedule body() override;

    /** Transfer tag for (pass, microbatch, direction, boundary). */
    static std::uint64_t tagFor(int pass, int m, bool backward,
                                int boundary);

    const WorkloadSpec &_spec;
    PipelineOptions _opts;

    int _pipeDim = 0;
    int _numStages = 1;
    int _stage = 0;
    NodeId _prev = kNodeInvalid; //!< node holding stage - 1
    NodeId _next = kNodeInvalid; //!< node holding stage + 1
    std::vector<int> _dataDims;  //!< non-pipeline dimensions
    std::size_t _layerLo = 0;    //!< first layer of this stage
    std::size_t _layerHi = 0;    //!< one past the last layer

    StageStats _stats;
};

/**
 * Cluster-wide pipeline-parallel training run.
 */
class PipelineRun : public NodeRun<PipelineNode, PipelineOptions>
{
  public:
    using NodeRun::NodeRun;

    int numStages() const { return _nodes.front()->numStages(); }

    /** Stage s's stats (taken from one representative node). */
    const StageStats &stage(int s) const;

    /** Fraction of the makespan the average stage spends stalled. */
    double bubbleRatio() const;

    /**
     * Publish the run's metrics into @p g: makespan, bubble ratio and
     * per-stage layers / compute / bubble / weight-gradient totals
     * under "stage<N>.*" keys. Call after run().
     */
    void exportStats(StatGroup &g) const;
};

} // namespace astra

#endif // ASTRA_WORKLOAD_PIPELINE_HH

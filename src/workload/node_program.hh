/**
 * @file
 * The workload executor: one NPU's loop of the workload layer
 * (Sec. IV-A, Fig. 6) — compute, issue collectives, wait on them — as
 * a C++20 coroutine over the Sys API. A schedule (NodeTrainer::body,
 * PipelineNode::body) is a straight loop whose waits are three
 * awaitables; each suspends only when it must and is resumed inside
 * the event that unblocks it, so the event stream is that of a
 * hand-written continuation-passing loop:
 *
 *  - busy(cycles): one scheduleAfter(cycles), none for 0 cycles;
 *  - settle(handle): resumed by the collective's onComplete;
 *  - receive(src, tag): resumed by Sys::expectP2P (inline, without
 *    suspending, when the transfer is already buffered).
 *
 * The coroutine unrolls the schedule lazily; a graph materialized up
 * front would hold passes x microbatches x ops nodes per NPU.
 */

#ifndef ASTRA_WORKLOAD_NODE_PROGRAM_HH
#define ASTRA_WORKLOAD_NODE_PROGRAM_HH

#include <algorithm>
#include <coroutine>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/cluster.hh"
#include "workload/layer.hh"

namespace astra
{

/**
 * One node's schedule: owns the coroutine frame of body() and reports
 * completion through the on_finish callback.
 */
class NodeProgram
{
  public:
    NodeProgram(Sys &sys, std::function<void()> on_finish)
        : _sys(sys), _onFinish(std::move(on_finish))
    {
    }
    virtual ~NodeProgram()
    {
        if (_frame)
            _frame.destroy();
    }

    NodeProgram(const NodeProgram &) = delete;
    NodeProgram &operator=(const NodeProgram &) = delete;

    /** Run body() up to its first wait; run the cluster to advance. */
    void
    start()
    {
        _startedAt = _sys.now();
        _frame = body().frame;
        _frame.promise().program = this;
        _frame.resume();
    }

    bool finished() const { return _finishedAt != kTickInvalid; }

    /** Wall-clock of the whole run at this node (0 until finished). */
    Tick
    totalTime() const
    {
        return finished() ? _finishedAt - _startedAt : 0;
    }

  protected:
    struct Promise;
    /** The coroutine type of a schedule; NodeProgram owns the frame. */
    struct Schedule
    {
        using promise_type = Promise;
        std::coroutine_handle<Promise> frame;
    };
    struct Promise
    {
        NodeProgram *program = nullptr;

        Schedule
        get_return_object()
        {
            return {std::coroutine_handle<Promise>::from_promise(*this)};
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() { program->finish(); }
        // Rethrow, so a FatalError raised inside a resumed event still
        // propagates out of the event loop; the frame then counts as
        // suspended at its final point.
        void unhandled_exception() { throw; } // astra-lint: allow(no-throw)
    };

    using Frame = std::coroutine_handle<>;
    /** Resumes a suspended schedule; fits EventCallback inline. */
    struct Resume
    {
        Frame frame;
        void operator()() const { frame.resume(); }
    };
    static_assert(EventCallback::fitsInline<Resume>());

    struct Busy
    {
        EventQueue &eq;
        Tick cycles;

        bool await_ready() const noexcept { return cycles == 0; }
        void await_suspend(Frame f) { eq.scheduleAfter(cycles, Resume{f}); }
        void await_resume() const noexcept {}
    };

    struct Settle
    {
        Sys &sys;
        CollectiveHandle *handle;
        Tick since = kTickInvalid;

        bool await_ready() const noexcept { return !handle || handle->done(); }
        void
        await_suspend(Frame frame)
        {
            since = sys.now();
            handle->onComplete = Resume{frame};
        }
        /** Blocked time; nullopt when the handle needed no wait. */
        std::optional<Tick>
        await_resume() const
        {
            if (since == kTickInvalid)
                return std::nullopt;
            return sys.now() - since;
        }
    };

    struct Receive
    {
        Sys &sys;
        NodeId src;
        std::uint64_t tag;
        Tick since = 0;
        bool expecting = false; //!< inside expectP2P
        bool arrived = false;   //!< expectP2P fired inline

        bool await_ready() const noexcept { return false; }
        bool
        await_suspend(Frame frame)
        {
            since = sys.now();
            expecting = true;
            sys.expectP2P(src, tag, [this, frame] {
                if (expecting)
                    arrived = true;
                else
                    frame.resume();
            });
            expecting = false;
            return !arrived;
        }
        /** Time spent waiting for the transfer. */
        Tick await_resume() const { return sys.now() - since; }
    };

    /** The node's schedule; runs from start() to completion. */
    virtual Schedule body() = 0;

    /** Busy the NPU for @p cycles. */
    Busy busy(Tick cycles) { return {_sys.eventQueue(), cycles}; }
    /** Wait until @p handle (nullable) completes. */
    Settle settle(const std::shared_ptr<CollectiveHandle> &handle)
    {
        return {_sys, handle.get()};
    }
    /** Wait until the transfer tagged (@p src, @p tag) arrives. */
    Receive receive(NodeId src, std::uint64_t tag) { return {_sys, src, tag}; }

    Sys &_sys;

  private:
    void
    finish()
    {
        _finishedAt = _sys.now();
        if (_onFinish)
            _onFinish();
    }

    std::function<void()> _onFinish;
    std::coroutine_handle<Promise> _frame;
    Tick _startedAt = 0;
    Tick _finishedAt = kTickInvalid;
};

/**
 * The run driver of WorkloadRun and PipelineRun: one @p Program per
 * NPU of the cluster, each built from the run's spec and @p Options.
 */
template <typename Program, typename Options>
class NodeRun
{
  public:
    NodeRun(Cluster &cluster, WorkloadSpec spec, Options opts)
        : _cluster(cluster), _spec(std::move(spec)), _opts(std::move(opts))
    {
        _nodes.reserve(std::size_t(cluster.numNodes()));
        for (NodeId n = 0; n < cluster.numNodes(); ++n) {
            _nodes.push_back(std::make_unique<Program>(
                cluster.node(n), _spec, _opts, nullptr));
        }
    }

    /**
     * Run until the cluster drains; @return the makespan (max total
     * time of the nodes that finished). A node left unfinished by a
     * Completed run is fatal (deadlock); a budget trip, interrupt or
     * fault outcome is left to Cluster::outcome(), as in
     * Cluster::runCollective.
     */
    Tick
    run()
    {
        for (const auto &n : _nodes)
            n->start();
        _cluster.run();
        _makespan = 0;
        int unfinished = 0;
        for (const auto &n : _nodes) {
            if (n->finished())
                _makespan = std::max(_makespan, n->totalTime());
            else
                ++unfinished;
        }
        if (unfinished != 0 && _cluster.outcome() == RunOutcome::Completed)
            fatal("%d of %zu nodes did not finish (deadlock?)", unfinished,
                  _nodes.size());
        return _makespan;
    }

    const WorkloadSpec &spec() const { return _spec; }
    Tick makespan() const { return _makespan; }

  protected:
    Cluster &_cluster;
    WorkloadSpec _spec;
    Options _opts;
    std::vector<std::unique_ptr<Program>> _nodes;
    Tick _makespan = 0;
};

} // namespace astra

#endif // ASTRA_WORKLOAD_NODE_PROGRAM_HH

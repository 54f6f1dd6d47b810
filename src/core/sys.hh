/**
 * @file
 * Sys — the system layer of one NPU (Fig. 6, middle box).
 *
 * Every NPU endpoint owns a Sys. The workload layer (or a benchmark
 * harness) calls issueCollective(); the Sys splits the set into chunks
 * (Table II), runs them through the scheduler's LSQ pipeline, executes
 * the topology-aware phase algorithms, and exchanges messages with
 * peer Sys instances through the NetworkApi. Completion is reported
 * per set via CollectiveHandle.
 *
 * Stream ids must be cluster-consistent: all participating nodes must
 * issue the same sequence of collectives (they run the same training
 * program), so each node's local id counter yields the same ids for
 * the same logical operation. This mirrors ASTRA-SIM, where every NPU
 * executes an identical workload loop.
 */

#ifndef ASTRA_CORE_SYS_HH
#define ASTRA_CORE_SYS_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "core/node_stats.hh"
#include "core/scheduler.hh"
#include "core/stream.hh"
#include "net/network_api.hh"
#include "topo/topology.hh"

namespace astra
{

class FaultManager;
struct FailureRecord;

/** Parameters of one collective issue. */
struct CollectiveRequest
{
    CollectiveKind kind = CollectiveKind::AllReduce;
    Bytes bytes = 0;          //!< set size at this node
    std::vector<int> dims;    //!< participating dims; empty = all
    LayerId layer = -1;       //!< for per-layer statistics
    std::function<void()> onComplete; //!< optional completion callback
    /** Override the configured set splitting (0 = use config). */
    int setSplits = 0;
};

/**
 * The per-NPU system layer.
 */
class Sys
{
  public:
    Sys(NodeId id, const Topology &topo, NetworkApi &net,
        const SimConfig &cfg);

    NodeId id() const { return _id; }
    const Topology &topology() const { return _topo; }
    const SimConfig &config() const { return _cfg; }
    EventQueue &eventQueue() { return _net.eventQueue(); }
    Tick now() { return eventQueue().now(); }

    /**
     * Issue one collective set. The same call must be made (in the
     * same order) on every participating node.
     */
    std::shared_ptr<CollectiveHandle>
    issueCollective(const CollectiveRequest &req);

    // --- point-to-point transfers (pipeline parallelism) --------------

    /**
     * Send @p bytes to @p dst, routed dimension-ordered through the
     * fabric. @p tag must be agreed between sender and receiver (the
     * pipeline trainer derives it from (pass, microbatch, direction)).
     */
    void sendP2P(NodeId dst, Bytes bytes, std::uint64_t tag);

    /**
     * Register @p cb to run (after the endpoint delay) when the
     * transfer tagged (@p src, @p tag) arrives; fires immediately if
     * it already has. One expectation per (src, tag).
     */
    void expectP2P(NodeId src, std::uint64_t tag,
                   std::function<void()> cb);

    /**
     * This node's recorded stats (queue/network delay breakdown etc.),
     * the slots the system layer and its workload record into.
     */
    NodeStats &nodeStats() { return _stats; }
    const NodeStats &nodeStats() const { return _stats; }

    /** nodeStats() named, as Cluster::exportMetrics names the fold. */
    StatGroup stats() const;

    /**
     * Install an inspector invoked on every completed stream before it
     * is destroyed (tests use this to check chunk post-conditions;
     * built-in post-condition panics run regardless).
     */
    void
    setStreamInspector(std::function<void(const Stream &)> fn)
    {
        _inspector = std::move(fn);
    }

    /** Streams still alive (issued, not completed). */
    std::size_t liveStreams() const { return _liveStreams; }

    /**
     * Slots of the stream table: the id span from the oldest live
     * stream to the newest (0 when none is live). Bounded by the live
     * window, not by the number of collectives run.
     */
    std::size_t
    streamWindow() const
    {
        return _streams.size() - _streamHead;
    }

    /**
     * Monotonic progress heartbeat for the livelock watchdog
     * (docs/robustness.md): bumped whenever a stream finishes or
     * completes a phase. The supervised loop compares the cluster-wide
     * sum between slices — events draining without this moving for a
     * full watchdog window is a livelocked run.
     */
    std::uint64_t progressCount() const { return _progress; }

    /** Outstanding P2P expectations (Cluster's deadlock scan). */
    std::size_t pendingP2P() const { return _p2pExpected.size(); }

    // --- fault layer (docs/faults.md) ---------------------------------

    /**
     * Wire the fault layer: @p faults drives retry pacing, straggler
     * slowdown, and ring-channel re-planning; @p sink receives the
     * FailureRecord of every retries-exhausted send. Never wired on a
     * fault-free run, so the hooks below fall back to the historical,
     * bit-for-bit-identical behavior.
     */
    void setFaults(const FaultManager *faults,
                   std::function<void(const FailureRecord &)> sink);

    /**
     * The backend discarded @p msg on @p link (fault layer). Retries
     * with bounded exponential backoff until the plan's retry budget is
     * exhausted, then reports a FailureRecord through the sink — never
     * a fatal.
     */
    void onMessageLost(const Message &msg, int link);

    /**
     * Ring channel a stream should use in @p dim: the historical
     * `id % channels` without faults, re-planned around forever-down
     * links otherwise (FaultManager::pickChannel).
     */
    int pickChannel(int dim, int channels, StreamId id) const;

    /** This node's straggler slowdown factor (1.0 = not a straggler). */
    double computeSlowdown() const;

    /**
     * Endpoint processing delay of every message this node receives:
     * the configured one, stretched on a straggler node (set by the
     * constructor and setFaults).
     */
    Tick endpointDelay() const { return _endpointDelay; }

    /** Attach a trace recorder (Cluster wires this when enabled). */
    void setTrace(TraceRecorder *trace) { _trace = trace; }

    /** The attached trace recorder, or nullptr. */
    TraceRecorder *trace() { return _trace; }

    // --- internal interfaces (Stream / Scheduler) ---------------------

    /** Transmit a message on behalf of @p stream's current phase. */
    void sendMessage(Stream &stream, int dst_rank, int channel,
                     Bytes bytes, int step,
                     std::shared_ptr<const ChunkPayload> payload);

    /** Called by Stream::phaseDone (defers the transition). */
    void streamPhaseDone(Stream &stream);

    /** Called by the Scheduler when a stream is admitted to its LSQ. */
    void startStreamPhase(Stream &stream);

    /** Messages already buffered for (sid, phase)? (wanted-promotion) */
    bool hasBufferedMessages(StreamId sid, int phase) const;

    Scheduler &scheduler() { return _scheduler; }

  private:
    /** Network receiver callback for this node. */
    void onMessage(const Message &msg);

    /** Phase transition after streamPhaseDone (runs off the stack). */
    void advanceStream(StreamId sid);

    /** Verify post-conditions, notify the handle, destroy the stream. */
    void finishStream(Stream &stream);

    /**
     * Count one completed chunk of @p handle's set, and complete the
     * set (stamp, count, fire its callback) when it was the last one.
     */
    void completeChunk(CollectiveHandle &handle);

    /** Replay any messages buffered for (sid, phase). */
    void drainUnmatched(Stream &stream);

    /** The live stream @p sid, or null (not issued yet, or finished). */
    Stream *findStream(StreamId sid) const;

    /** Add the just-issued stream @p sid to the table. */
    void insertStream(StreamId sid, std::unique_ptr<Stream> stream);

    /** Destroy stream @p sid and trim finished ids off the front. */
    void eraseStream(StreamId sid);

    NodeId _id;
    const Topology &_topo;
    NetworkApi &_net;
    const SimConfig &_cfg;
    Scheduler _scheduler;
    NodeStats _stats;

    /** Dispatch a point-to-point arrival. */
    void onP2PMessage(const Message &msg);

    /** Match the arrival of (@p src, @p tag) against its expectation. */
    void matchP2P(NodeId src, std::uint64_t tag);

    /**
     * The event a point-to-point arrival schedules: only the match
     * key, not the message, so it is stored inline (no heap per
     * delivery).
     */
    struct P2PArrival
    {
        Sys *sys;
        NodeId src;
        std::uint64_t tag;

        void operator()() const { sys->matchP2P(src, tag); }
    };
    static_assert(EventCallback::fitsInline<P2PArrival>());

    /** Send the message parked in _retryParked[@p slot] again. */
    void resend(std::uint32_t slot);

    /**
     * The event a loss retry schedules: the message waits in
     * _retryParked, so the callable is stored inline (no heap per
     * retry).
     */
    struct RetrySend
    {
        Sys *sys;
        std::uint32_t slot;

        void operator()() const { sys->resend(slot); }
    };
    static_assert(EventCallback::fitsInline<RetrySend>());

    /** Messages waiting out a retry backoff; slots are reused. */
    std::vector<Message> _retryParked;
    std::vector<std::uint32_t> _retryFree; //!< free slots of _retryParked

    StreamId _nextStreamId = 1;
    /**
     * Live streams by id - _streamBase; null marks a finished id or
     * one with nothing to communicate. Ids outside it are not live.
     * A vector, not a deque: building a Sys allocates nothing for it.
     */
    std::vector<std::unique_ptr<Stream>> _streams;
    StreamId _streamBase = 1;     //!< id of _streams[0]
    std::size_t _streamHead = 0;  //!< finished prefix not yet trimmed
    std::size_t _liveStreams = 0;
    std::map<std::pair<StreamId, std::int32_t>, std::vector<Message>>
        _unmatched;
    /** (src, tag) -> pending receive callback / early arrival count. */
    std::map<std::pair<NodeId, std::uint64_t>, std::function<void()>>
        _p2pExpected;
    std::map<std::pair<NodeId, std::uint64_t>, int> _p2pArrived;
    std::function<void(const Stream &)> _inspector;
    std::uint64_t _progress = 0; //!< watchdog heartbeat (progressCount)
    TraceRecorder *_trace = nullptr;
    const FaultManager *_faults = nullptr; //!< null = no fault plan
    Tick _endpointDelay; //!< see endpointDelay()
    std::function<void(const FailureRecord &)> _failureSink;
};

} // namespace astra

#endif // ASTRA_CORE_SYS_HH

/**
 * @file
 * In-memory host-time spans for the traced benchmark run.
 *
 * The benchmark opens a span around every call it makes into a layer
 * of the simulator (platform build, collective issue, network send,
 * delivery into Sys, the event loop, metric export). Spans nest on a
 * stack; a span's self time is its duration minus the time covered by
 * its child spans. Totals per span kind are exact. Individual spans are
 * kept as a decimated sample (every stride-th span, the stride doubling
 * whenever the buffer fills), so memory stays bounded however many
 * messages a run moves.
 */

#ifndef PERFBENCH_SPAN_TRACER_HH
#define PERFBENCH_SPAN_TRACER_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench
{

/** The layer boundaries the benchmark times. */
enum class Span : std::uint8_t
{
    ClusterBuild,  //!< topology + backend + one Sys per NPU
    WorkloadBuild, //!< model generation + trainer/pipeline construction
    Loop,          //!< first issue or trainer start until the queue drains
    SysIssue,      //!< Sys::issueCollective called by the benchmark
    NetSendColl,   //!< NetworkApi::send of a collective message
    NetSendP2p,    //!< NetworkApi::send of a point-to-point message
    SysRecvColl,   //!< delivery of a collective message into Sys
    SysRecvP2p,    //!< delivery of a point-to-point message into Sys
    ClusterExport, //!< the exportMetrics snapshot
    Count
};

/** Dotted metric name of @p s (e.g. "net.send.coll"). */
const char *spanName(Span s);

class SpanTracer
{
  public:
    /** Exact totals of one span kind. */
    struct Totals
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };

    /** RAII span: begins on construction, ends on destruction. */
    class Scope
    {
      public:
        Scope(SpanTracer &tracer, Span span) : _tracer(tracer)
        {
            _tracer.begin(span);
        }
        ~Scope() { _tracer.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanTracer &_tracer;
    };

    SpanTracer();

    void
    begin(Span span)
    {
        _open.push_back(Open{span, nowNs(), 0});
    }

    void end();

    const Totals &totals(Span s) const
    {
        return _totals[static_cast<std::size_t>(s)];
    }

    /** Write totals and the sampled spans as one JSON document. */
    void writeJson(std::FILE *f) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Open
    {
        Span span;
        std::int64_t startNs;
        std::int64_t childNs; //!< time covered by closed child spans
    };

    struct Sample
    {
        Span span;
        Span parent; //!< Span::Count for a root span
        std::int64_t startNs;
        std::int64_t durNs;
        std::int64_t selfNs;
    };

    static constexpr std::size_t kMaxSamples = 4096;

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _origin)
            .count();
    }

    Clock::time_point _origin;
    std::vector<Open> _open;
    std::array<Totals, static_cast<std::size_t>(Span::Count)> _totals{};
    std::vector<Sample> _samples;
    std::uint64_t _ended = 0;  //!< spans closed so far
    std::uint64_t _stride = 1; //!< sample every stride-th closed span
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACER_HH

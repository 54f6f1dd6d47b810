#include "span_tracer.hh"

namespace perfbench
{

const char *
spanName(Span s)
{
    switch (s) {
      case Span::ClusterBuild: return "cluster.build";
      case Span::WorkloadBuild: return "workload.build";
      case Span::Loop: return "loop";
      case Span::SysIssue: return "sys.issue";
      case Span::NetSendColl: return "net.send.coll";
      case Span::NetSendP2p: return "net.send.p2p";
      case Span::SysRecvColl: return "sys.recv.coll";
      case Span::SysRecvP2p: return "sys.recv.p2p";
      case Span::ClusterExport: return "cluster.export";
      case Span::Count: break;
    }
    return "root";
}

SpanTracer::SpanTracer() : _origin(Clock::now())
{
    _open.reserve(16);
    _samples.reserve(kMaxSamples);
}

void
SpanTracer::end()
{
    const Open o = _open.back();
    _open.pop_back();
    const std::int64_t dur = nowNs() - o.startNs;
    const std::int64_t self = dur - o.childNs;
    Totals &t = _totals[static_cast<std::size_t>(o.span)];
    ++t.count;
    t.totalNs += dur;
    t.selfNs += self;
    if (!_open.empty())
        _open.back().childNs += dur;

    if (_ended % _stride == 0) {
        if (_samples.size() == kMaxSamples) {
            // Sample i holds span number i * stride: keeping the even
            // positions leaves exactly the multiples of 2 * stride.
            std::size_t w = 0;
            for (std::size_t r = 0; r < _samples.size(); r += 2)
                _samples[w++] = _samples[r];
            _samples.resize(w);
            _stride *= 2;
        }
        if (_ended % _stride == 0) {
            _samples.push_back(Sample{
                o.span, _open.empty() ? Span::Count : _open.back().span,
                o.startNs, dur, self});
        }
    }
    ++_ended;
}

void
SpanTracer::writeJson(std::FILE *f) const
{
    std::fprintf(f, "{\n  \"totals\": {");
    for (std::size_t i = 0; i < _totals.size(); ++i) {
        const Totals &t = _totals[i];
        std::fprintf(f,
                     "%s\n    \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                     "\"self_ns\": %lld}",
                     i ? "," : "", spanName(static_cast<Span>(i)),
                     static_cast<unsigned long long>(t.count),
                     static_cast<long long>(t.totalNs),
                     static_cast<long long>(t.selfNs));
    }
    std::fprintf(f,
                 "\n  },\n  \"spans_closed\": %llu,\n"
                 "  \"sample_stride\": %llu,\n  \"samples\": [",
                 static_cast<unsigned long long>(_ended),
                 static_cast<unsigned long long>(_stride));
    for (std::size_t i = 0; i < _samples.size(); ++i) {
        const Sample &s = _samples[i];
        std::fprintf(f,
                     "%s\n    {\"span\": \"%s\", \"parent\": \"%s\", "
                     "\"start_ns\": %lld, \"dur_ns\": %lld, "
                     "\"self_ns\": %lld}",
                     i ? "," : "", spanName(s.span), spanName(s.parent),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.durNs),
                     static_cast<long long>(s.selfNs));
    }
    std::fprintf(f, "\n  ]\n}\n");
}

} // namespace perfbench

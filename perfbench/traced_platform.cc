#include "traced_platform.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "guard/guard.hh"
#include "net/analytical.hh"
#include "net/garnet_lite.hh"

using namespace astra;

namespace perfbench
{

namespace
{

Span
sendSpan(const Message &msg)
{
    // Sys::sendP2P marks point-to-point traffic with a negative phase.
    return msg.tag.phase < 0 ? Span::NetSendP2p : Span::NetSendColl;
}

Span
recvSpan(const Message &msg)
{
    return msg.tag.phase < 0 ? Span::SysRecvP2p : Span::SysRecvColl;
}

} // namespace

ForwardingNetwork::ForwardingNetwork(NetworkApi &backend, int nodes,
                                     SpanTracer &tracer)
    : _backend(backend), _tracer(tracer)
{
    for (NodeId n = 0; n < nodes; ++n) {
        _backend.setReceiver(n, [this](const Message &msg) {
            SpanTracer::Scope span(_tracer, recvSpan(msg));
            deliver(msg);
        });
    }
}

void
ForwardingNetwork::send(Message msg)
{
    SpanTracer::Scope span(_tracer, sendSpan(msg));
    _backend.send(std::move(msg));
}

TracedPlatform::TracedPlatform(const SimConfig &cfg, SpanTracer &tracer)
    : _cfg(cfg), _topo(_cfg), _tracer(tracer)
{
    if (_cfg.physicalDistinct || !_cfg.traceFile.empty() ||
        !FaultPlan::fromConfig(_cfg).empty() ||
        guard::RunBudget::fromConfig(_cfg).active()) {
        fatal("traced platform mirrors only fault-free, unbudgeted, "
              "one-to-one platforms without a trace file");
    }
    switch (_cfg.backend) {
      case NetworkBackend::Analytical:
        _backend = std::make_unique<AnalyticalNetwork>(_eq, _topo, _cfg);
        break;
      case NetworkBackend::GarnetLite:
        _backend = std::make_unique<GarnetLiteNetwork>(_eq, _topo, _cfg);
        break;
    }
    _net = std::make_unique<ForwardingNetwork>(*_backend, _topo.numNodes(),
                                               _tracer);
    _nodes.reserve(std::size_t(_topo.numNodes()));
    for (NodeId n = 0; n < _topo.numNodes(); ++n)
        _nodes.push_back(std::make_unique<Sys>(n, _topo, *_net, _cfg));
    if (_cfg.digest)
        _eq.enableDigest();
}

Tick
TracedPlatform::runCollective(const CollectiveRequest &req)
{
    SpanTracer::Scope loop(_tracer, Span::Loop);
    const Tick issued = _eq.now();
    std::vector<std::shared_ptr<CollectiveHandle>> handles;
    handles.reserve(_nodes.size());
    for (auto &node : _nodes) {
        SpanTracer::Scope issue(_tracer, Span::SysIssue);
        handles.push_back(node->issueCollective(req));
    }
    _eq.run();

    Tick finish = issued;
    for (const auto &h : handles) {
        if (!h->done())
            fatal("collective did not complete (deadlock?)");
        finish = std::max(finish, h->completedAt);
    }
    return finish - issued;
}

MetricRegistry
TracedPlatform::exportMetrics() const
{
    MetricRegistry reg;
    StatGroup all;
    for (const auto &node : _nodes)
        all.merge(node->stats());
    reg.group("sys") = all;
    _backend->exportStats(reg.group("net"));

    StatGroup &cl = reg.group("cluster");
    cl.set("elapsed.ticks", static_cast<double>(_eq.now()));
    cl.set("events.executed", static_cast<double>(_eq.executedEvents()));
    cl.set("nodes", double(_topo.numNodes()));
    return reg;
}

bool
TracedPlatform::drained() const
{
    return std::all_of(_nodes.begin(), _nodes.end(), [](const auto &n) {
        return n->liveStreams() == 0 && n->pendingP2P() == 0;
    });
}

} // namespace perfbench

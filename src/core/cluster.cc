#include "core/cluster.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "guard/guard.hh"
#include "guard/interrupt.hh"
#include "net/analytical.hh"
#include "net/garnet_lite.hh"

namespace astra
{

Cluster::Cluster(const SimConfig &cfg) : _cfg(cfg), _topo(cfg)
{
    // The network backend is built from the *physical* fabric; the
    // system layer keeps its logical view (one-to-one by default).
    const bool one_to_one = !_cfg.physicalDistinct;
    if (!one_to_one)
        _physTopo = std::make_unique<Topology>(_cfg.physicalConfig());
    const Topology &net_topo = _physTopo ? *_physTopo : _topo;
    const SimConfig net_cfg =
        _physTopo ? _cfg.physicalConfig() : _cfg;

    switch (_cfg.backend) {
      case NetworkBackend::Analytical:
        _net = std::make_unique<AnalyticalNetwork>(_eq, net_topo,
                                                   net_cfg, one_to_one);
        break;
      case NetworkBackend::GarnetLite:
        _net = std::make_unique<GarnetLiteNetwork>(_eq, net_topo,
                                                   net_cfg, one_to_one);
        break;
    }
    _nodes.reserve(std::size_t(_topo.numNodes()));
    for (NodeId n = 0; n < _topo.numNodes(); ++n)
        _nodes.push_back(std::make_unique<Sys>(n, _topo, *_net, _cfg));

    // Fault layer: only wired when the plan has rules, so a fault-free
    // run takes none of the hooks and stays bit-for-bit identical.
    FaultPlan plan = FaultPlan::fromConfig(_cfg);
    if (!plan.empty()) {
        _faults = std::make_unique<FaultManager>(std::move(plan));
        // Ring re-planning needs the literal hint->link mapping; mapped
        // fabrics only seed channels, so skip binding there.
        if (one_to_one) {
            const Fabric &fabric = _net->fabric();
            for (int d = 0; d < net_topo.numDims(); ++d) {
                for (int ch = 0; ch < fabric.ringChannels(d); ++ch)
                    _faults->bindRingChannel(d, ch, fabric.ringLinks(d, ch));
            }
        }
        _net->setFaults(_faults.get());
        _net->setLossHandler([this](const Message &msg, int link) {
            ASTRA_CHECK(msg.src >= 0 &&
                            std::size_t(msg.src) < _nodes.size(),
                        "loss reported for out-of-range sender %d",
                        msg.src);
            _nodes[std::size_t(msg.src)]->onMessageLost(msg, link);
        });
        for (auto &node : _nodes) {
            node->setFaults(_faults.get(),
                            [this](const FailureRecord &rec) {
                                _failures.push_back(rec);
                            });
        }
    }

    if (!_cfg.traceFile.empty()) {
        _trace = std::make_unique<TraceRecorder>();
        // Lane names: one process per NPU plus one for the network's
        // utilization counter lanes (pid = numNodes, above all NPUs).
        const int net_pid = _topo.numNodes();
        _trace->processName(net_pid, "network");
        for (auto &node : _nodes) {
            _trace->processName(int(node->id()),
                                strprintf("npu%d", int(node->id())));
            node->setTrace(_trace.get());
        }
        _net->setTrace(_trace.get(), net_pid);
    }

    // Determinism auditor: accumulate the retired-event digest.
    if (_cfg.digest)
        _eq.enableDigest();

    // Integrity layer: drain-time checkers, run at the end of run()
    // when the runtime validation level is at least basic.
    if (validationAtLeast(ValidateLevel::kBasic)) {
        _validators.add("common.event_queue.drain",
                        [this] { _eq.validateDrained(); });
        _net->registerCheckers(_validators);
        for (auto &node : _nodes) {
            Sys *sys = node.get();
            _validators.add(
                strprintf("core.scheduler.npu%d.drain", int(sys->id())),
                [sys] { sys->scheduler().validateDrained(); });
        }
    }
}

Cluster::~Cluster()
{
    if (_trace && !_cfg.traceFile.empty() && _trace->size() > 0) {
        // Best effort: never let trace I/O failures mask the real
        // outcome of a run during stack unwinding.
        try {
            flushTrace();
        } catch (...) {
        }
    }
}

void
Cluster::flushTrace()
{
    if (!_trace)
        return;
    _trace->writeFile(_cfg.traceFile);
    _trace->clear();
}

std::vector<std::shared_ptr<CollectiveHandle>>
Cluster::issueAll(const CollectiveRequest &req)
{
    std::vector<std::shared_ptr<CollectiveHandle>> handles;
    handles.reserve(_nodes.size());
    for (auto &node : _nodes)
        handles.push_back(node->issueCollective(req));
    return handles;
}

Tick
Cluster::run()
{
    // Supervised event loop (docs/robustness.md): events fire in
    // fixed-size slices and budgets, the interrupt flag and the
    // progress watchdog are polled only *between* slices — never
    // inside an event — so a run that stays under budget retires the
    // exact event stream an unsliced _eq.run() would (digests
    // unchanged), and a tripped run stops at a clean event boundary
    // with partial metrics and the digest so far intact.
    const guard::RunBudget budget = guard::RunBudget::fromConfig(_cfg);
    constexpr std::uint64_t kSlice = 4096;

    std::uint64_t since_progress = 0;
    std::uint64_t last_progress = progressSum();

    for (;;) {
        if (guard::interruptRequested()) {
            trip(RunOutcome::Interrupted,
                 "interrupted: cooperative SIGINT/SIGTERM drain at "
                 "event boundary");
            return _eq.now();
        }
        if (budget.maxSlabBytes != 0 &&
            _eq.slabBytes() > budget.maxSlabBytes) {
            trip(RunOutcome::BudgetExceeded,
                 strprintf("budget: max-slab-bytes=%llu exceeded "
                           "(slab holds %zu bytes)",
                           static_cast<unsigned long long>(
                               budget.maxSlabBytes),
                           _eq.slabBytes()));
            return _eq.now();
        }
        std::uint64_t slice = kSlice;
        if (budget.maxEvents != 0) {
            // The ceiling covers the queue's whole lifetime, so a
            // multi-phase workload cannot dodge it by splitting the
            // run into many run() calls.
            const std::uint64_t used = _eq.executedEvents();
            if (used >= budget.maxEvents && !_eq.empty()) {
                trip(RunOutcome::BudgetExceeded,
                     strprintf("budget: max-events=%llu exceeded",
                               static_cast<unsigned long long>(
                                   budget.maxEvents)));
                return _eq.now();
            }
            slice = std::min(slice, budget.maxEvents - used);
        }
        const std::uint64_t fired =
            budget.maxSimTime != 0
                ? _eq.runBounded(budget.maxSimTime, slice)
                : _eq.run(slice);
        if (_eq.empty())
            break; // normal drain
        if (budget.maxSimTime != 0 && fired < slice) {
            // Slice undershot with events still pending: everything
            // left is beyond the time ceiling.
            trip(RunOutcome::BudgetExceeded,
                 strprintf("budget: max-sim-time=%llu reached (next "
                           "event is later)",
                           static_cast<unsigned long long>(
                               budget.maxSimTime)));
            return _eq.now();
        }
        if (budget.watchdogWindow != 0) {
            const std::uint64_t p = progressSum();
            if (p != last_progress) {
                last_progress = p;
                since_progress = 0;
            } else {
                since_progress += fired;
                if (since_progress >= budget.watchdogWindow) {
                    // Livelock: the queue keeps retiring events but no
                    // stream or chunk has completed a phase for a full
                    // window — the spinning cousin of the stranded-work
                    // Deadlocked detection below.
                    trip(RunOutcome::Deadlocked,
                         strprintf(
                             "watchdog: no stream/chunk progress in "
                             "%llu events",
                             static_cast<unsigned long long>(
                                 since_progress)));
                    return _eq.now();
                }
            }
        }
    }
    refreshOutcome();
    // The drain checkers assume a fully completed run: a degraded run
    // legitimately strands streams, queued transfers and credits, so
    // they only execute on Completed outcomes (the failure report is
    // the diagnostic for the others).
    if (_outcome == RunOutcome::Completed)
        _validators.runAll();
    return _eq.now();
}

std::uint64_t
Cluster::progressSum() const
{
    std::uint64_t sum = 0;
    for (const auto &node : _nodes)
        sum += node->progressCount();
    return sum;
}

void
Cluster::trip(RunOutcome outcome, const std::string &reason)
{
    _outcome = outcome;
    FailureRecord rec;
    rec.tick = _eq.now();
    rec.reason = reason;
    _failures.push_back(rec);
}

void
Cluster::refreshOutcome()
{
    if (!_faults) {
        _outcome = RunOutcome::Completed; // historical behavior
        return;
    }
    if (!_failures.empty()) {
        _outcome = RunOutcome::Degraded;
        return;
    }
    bool live = false;
    for (const auto &node : _nodes) {
        if (node->liveStreams() > 0 || node->pendingP2P() > 0)
            live = true;
    }
    _outcome = live ? RunOutcome::Deadlocked : RunOutcome::Completed;
}

Tick
Cluster::runCollective(CollectiveKind kind, Bytes bytes,
                       std::vector<int> dims, int set_splits)
{
    CollectiveRequest req;
    req.kind = kind;
    req.bytes = bytes;
    req.dims = std::move(dims);
    req.setSplits = set_splits;

    const Tick issued = _eq.now();
    auto handles = issueAll(req);
    run();

    Tick finish = issued;
    for (const auto &h : handles) {
        if (!h->done()) {
            // Under a fault plan an incomplete collective is the
            // Degraded/Deadlocked outcome's business, not a fatal.
            if (_outcome != RunOutcome::Completed)
                continue;
            fatal("collective did not complete (deadlock?)");
        }
        finish = std::max(finish, h->completedAt);
    }
    return finish - issued;
}

StatGroup
Cluster::aggregateStats() const
{
    NodeStats all;
    for (const auto &node : _nodes)
        all.merge(node->nodeStats());
    StatGroup g;
    all.exportTo(g, _topo);
    return g;
}

MetricRegistry
Cluster::exportMetrics() const
{
    MetricRegistry reg;
    reg.group("sys") = aggregateStats();
    _net->exportStats(reg.group("net"));

    StatGroup &cl = reg.group("cluster");
    cl.set("elapsed.ticks", static_cast<double>(_eq.now()));
    cl.set("events.executed",
           static_cast<double>(_eq.executedEvents()));
    cl.set("nodes", double(_topo.numNodes()));

    // Only present when a run budget / watchdog is configured, so
    // unsupervised metric JSON is byte-identical to pre-guard output.
    if (guard::RunBudget::fromConfig(_cfg).active()) {
        StatGroup &g = reg.group("guard");
        g.set("outcome", double(int(_outcome)));
        g.set("slab.bytes", double(_eq.slabBytes()));
        g.set("progress.count", double(progressSum()));
    }

    // Only present under a fault plan, so fault-free metric JSON is
    // byte-identical to the pre-fault-layer output.
    if (_faults) {
        StatGroup &f = reg.group("fault");
        f.set("outcome", double(int(_outcome)));
        f.set("failures", double(_failures.size()));
        f.set("drops.injected",
              double(_faults->dropsInjected()));
        f.set("lost.messages", double(_net->lostMessages()));
    }
    return reg;
}

} // namespace astra

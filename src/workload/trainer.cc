#include "workload/trainer.hh"

#include <utility>

#include "common/logging.hh"

namespace astra
{

NodeTrainer::NodeTrainer(Sys &sys, const WorkloadSpec &spec,
                         const TrainerOptions &opts,
                         std::function<void()> on_finish)
    : NodeProgram(sys, std::move(on_finish)), _spec(spec), _opts(opts)
{
    if (_spec.layers.empty())
        fatal("workload has no layers");
    if (_opts.numPasses < 1)
        fatal("num-passes must be >= 1");
    if (_opts.computeScale <= 0)
        fatal("compute scale must be positive");

    const Topology &topo = _sys.topology();
    auto all_dims = [&topo] {
        std::vector<int> d;
        for (int i = 0; i < topo.numDims(); ++i)
            d.push_back(i);
        return d;
    };

    _dataDims = _opts.dataDims;
    _modelDims = _opts.modelDims;
    switch (_spec.parallelism) {
      case ParallelismKind::Data:
        if (_dataDims.empty())
            _dataDims = all_dims();
        _modelDims.clear();
        break;
      case ParallelismKind::Model:
        if (_modelDims.empty())
            _modelDims = all_dims();
        _dataDims.clear();
        break;
      case ParallelismKind::Hybrid:
        if (_dataDims.empty() && _modelDims.empty()) {
            // Defaults: on a torus, the paper's Transformer setup
            // (Sec. V-E) — model-parallel across the vertical
            // dimension, data-parallel across the rest. On the
            // AllToAll family, model-parallel within the package
            // (local rings), data-parallel across packages.
            const int model_dim =
                topo.kind() == TopologyKind::Torus3D
                    ? Topology::kDimVertical
                    : Topology::kDimLocal;
            for (int d : all_dims()) {
                if (d == model_dim)
                    _modelDims.push_back(d);
                else
                    _dataDims.push_back(d);
            }
        }
        break;
    }

    _stats.assign(_spec.layers.size(), LayerRunStats{});
}

Tick
NodeTrainer::scaled(Tick base) const
{
    // Straggler nodes (fault layer) multiply every compute delay; the
    // factor is 1.0 on a fault-free run, leaving `base / computeScale`
    // bit-for-bit unchanged.
    const double slow = _sys.computeSlowdown();
    return ceilTicks(static_cast<double>(base) * slow / _opts.computeScale,
                     "scaled compute delay");
}

std::shared_ptr<CollectiveHandle>
NodeTrainer::issue(std::size_t l, CommSlot slot)
{
    const LayerSpec &layer = _spec.layers[l];
    if (layer.comm(slot) == CollectiveKind::None)
        return nullptr;
    const std::vector<int> &dims =
        slot == CommSlot::WeightGrad ? _dataDims : _modelDims;
    if (dims.empty()) {
        // Declared in the workload file but the parallelism strategy
        // gives it no group to run over (e.g. activations under pure
        // data parallelism) — nothing to exchange.
        return nullptr;
    }
    CollectiveRequest req;
    req.kind = layer.comm(slot);
    req.bytes = layer.commSize(slot);
    req.dims = dims;
    req.layer = static_cast<LayerId>(l);
    return _sys.issueCollective(req);
}

Tick
NodeTrainer::settled(std::size_t l, CommSlot slot,
                     const std::shared_ptr<CollectiveHandle> &handle,
                     std::optional<Tick> blocked)
{
    if (!handle)
        return 0;
    if (blocked) {
        _stats[l].exposed += *blocked;
        _sys.nodeStats().recordExposed(static_cast<double>(*blocked));
        if (TraceRecorder *tr = _sys.trace()) {
            tr->span(_sys.id(), 0, "wait",
                     "exposed: " + _spec.layers[l].name,
                     _sys.now() - *blocked, _sys.now());
        }
    }
    LayerRunStats &s = _stats[l];
    Tick &raw = slot == CommSlot::Forward     ? s.commFwd
                : slot == CommSlot::InputGrad ? s.commIg
                                              : s.commWg;
    raw += handle->duration();
    return _spec.layers[l].updateDelay(slot);
}

NodeProgram::Busy
NodeTrainer::compute(std::size_t l, Tick cycles)
{
    _stats[l].compute += cycles;
    TraceRecorder *tr = _sys.trace();
    if (tr && cycles != 0) {
        tr->span(_sys.id(), 0, "compute", _spec.layers[l].name,
                 _sys.now(), _sys.now() + cycles);
    }
    return busy(cycles);
}

NodeProgram::Schedule
NodeTrainer::body()
{
    const std::size_t layers = _spec.layers.size();
    // Outstanding weight-gradient collectives, per layer.
    std::vector<std::shared_ptr<CollectiveHandle>> wg(layers);
    for (int pass = 0; pass < _opts.numPasses; ++pass) {
        for (std::size_t l = 0; l < layers; ++l) {
            // Weights must be up to date before this layer's forward
            // pass: the previous iteration's weight-gradient
            // collective gates us here.
            auto h = std::exchange(wg[l], nullptr);
            auto blocked = co_await settle(h);
            const Tick update = settled(l, CommSlot::WeightGrad, h, blocked);
            co_await compute(l, update + scaled(_spec.layers[l].fwdCompute));
            // Output activations may need to be exchanged before the
            // next layer can start (model/hybrid parallelism) — a
            // strict, blocking dependency (Sec. V-E).
            h = issue(l, CommSlot::Forward);
            blocked = co_await settle(h);
            co_await compute(l, settled(l, CommSlot::Forward, h, blocked));
        }
        for (std::size_t l = layers; l-- > 0;) {
            // Input (error) gradients: needed by layer l-1's backward
            // step; computed and exchanged for every layer but the
            // first.
            if (l > 0) {
                co_await compute(l, scaled(_spec.layers[l].igCompute));
                auto h = issue(l, CommSlot::InputGrad);
                auto blocked = co_await settle(h);
                co_await compute(l,
                                 settled(l, CommSlot::InputGrad, h, blocked));
            }
            co_await compute(l, scaled(_spec.layers[l].wgCompute));
            // Fire-and-forget: the all-reduce overlaps with the rest of
            // back-propagation; only the next iteration's forward pass
            // (or the end of the run) waits on it.
            wg[l] = issue(l, CommSlot::WeightGrad);
        }
    }
    // All weight gradients must land before training ends.
    for (std::size_t l = 0; l < layers; ++l) {
        auto h = std::exchange(wg[l], nullptr);
        auto blocked = co_await settle(h);
        co_await compute(l, settled(l, CommSlot::WeightGrad, h, blocked));
    }
}

Tick
NodeTrainer::totalExposed() const
{
    Tick t = 0;
    for (const LayerRunStats &s : _stats)
        t += s.exposed;
    return t;
}

Tick
NodeTrainer::totalCompute() const
{
    Tick t = 0;
    for (const LayerRunStats &s : _stats)
        t += s.compute;
    return t;
}

// --- WorkloadRun ----------------------------------------------------------

double
WorkloadRun::exposedRatio() const
{
    if (_makespan == 0)
        return 0;
    return static_cast<double>(_nodes.front()->totalExposed()) /
           static_cast<double>(_makespan);
}

double
WorkloadRun::computeRatio() const
{
    if (_makespan == 0)
        return 0;
    return static_cast<double>(_nodes.front()->totalCompute()) /
           static_cast<double>(_makespan);
}

void
WorkloadRun::exportStats(StatGroup &g) const
{
    g.set("makespan.ticks", static_cast<double>(_makespan));
    g.set("exposed.ratio", exposedRatio());
    g.set("compute.ratio", computeRatio());
    g.set("passes", double(_opts.numPasses));
    g.set("layers", double(_spec.layers.size()));

    const std::vector<LayerRunStats> &stats = layerStats();
    for (std::size_t l = 0; l < stats.size(); ++l) {
        const LayerRunStats &s = stats[l];
        const std::string prefix =
            strprintf("layer%zu.%s.", l, _spec.layers[l].name.c_str());
        g.set(prefix + "compute", static_cast<double>(s.compute));
        g.set(prefix + "comm_fwd", static_cast<double>(s.commFwd));
        g.set(prefix + "comm_ig", static_cast<double>(s.commIg));
        g.set(prefix + "comm_wg", static_cast<double>(s.commWg));
        g.set(prefix + "comm_total",
              static_cast<double>(s.commTotal()));
        g.set(prefix + "exposed", static_cast<double>(s.exposed));
    }
}

} // namespace astra

#include "workload/pipeline.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"

namespace astra
{

PipelineNode::PipelineNode(Sys &sys, const WorkloadSpec &spec,
                           const PipelineOptions &opts,
                           std::function<void()> on_finish)
    : NodeProgram(sys, std::move(on_finish)), _spec(spec), _opts(opts)
{
    if (_spec.layers.empty())
        fatal("pipeline workload has no layers");
    if (_opts.numPasses < 1 || _opts.microbatches < 1)
        fatal("pipeline passes/microbatches must be >= 1");
    if (_opts.computeScale <= 0)
        fatal("compute scale must be positive");

    const Topology &topo = _sys.topology();
    _pipeDim = _opts.pipelineDim;
    if (_pipeDim < 0) {
        // Pick the largest inter-package dimension.
        _pipeDim = Topology::kDimLocal;
        for (int d = 0; d < topo.numDims(); ++d) {
            if (topo.dim(d).linkClass == LinkClass::Package &&
                topo.dim(d).size > topo.dim(_pipeDim).size) {
                _pipeDim = d;
            }
        }
        if (topo.dim(_pipeDim).linkClass != LinkClass::Package)
            fatal("no inter-package dimension to pipeline over; pass "
                  "PipelineOptions::pipelineDim");
    }
    if (_pipeDim >= topo.numDims())
        fatal("pipeline dimension %d out of range", _pipeDim);

    _numStages = topo.dim(_pipeDim).size;
    if (_numStages < 2)
        fatal("pipeline dimension must have size >= 2");
    if (static_cast<std::size_t>(_numStages) > _spec.layers.size())
        fatal("more pipeline stages (%d) than layers (%zu)", _numStages,
              _spec.layers.size());

    _stage = topo.rankInGroup(_pipeDim, _sys.id());
    if (_stage > 0)
        _prev = topo.peer(_sys.id(), _pipeDim, _stage - 1);
    if (_stage < _numStages - 1)
        _next = topo.peer(_sys.id(), _pipeDim, _stage + 1);
    for (int d = 0; d < topo.numDims(); ++d) {
        if (d != _pipeDim)
            _dataDims.push_back(d);
    }

    // Contiguous layer partition, remainder to the early stages.
    const std::size_t layers = _spec.layers.size();
    const std::size_t base = layers / std::size_t(_numStages);
    const std::size_t rem = layers % std::size_t(_numStages);
    std::size_t lo = 0;
    for (int s = 0; s <= _stage; ++s) {
        const std::size_t len = base + (std::size_t(s) < rem ? 1 : 0);
        _layerLo = lo;
        _layerHi = lo + len;
        lo += len;
    }
    _stats.layers = static_cast<int>(_layerHi - _layerLo);
}

std::uint64_t
PipelineNode::tagFor(int pass, int m, bool backward, int boundary)
{
    // Unique per (pass, microbatch, direction, stage boundary).
    return ((std::uint64_t(pass) * 4096 + std::uint64_t(m)) * 2 +
            (backward ? 1 : 0)) *
               256 +
           std::uint64_t(boundary);
}

NodeProgram::Schedule
PipelineNode::body()
{
    // Per-microbatch work of this stage: the same for every step.
    Tick fwd = 0, ig = 0, wg = 0;
    Bytes wg_bytes = 0;
    for (std::size_t l = _layerLo; l < _layerHi; ++l) {
        fwd += _spec.layers[l].fwdCompute;
        ig += _spec.layers[l].igCompute;
        wg += _spec.layers[l].wgCompute;
        wg_bytes += _spec.layers[l].wgCommSize;
    }
    const double split = _opts.computeScale * _opts.microbatches;
    const auto micro = [split](Tick total) {
        return static_cast<Tick>(std::ceil(double(total) / split));
    };
    fwd = micro(fwd);
    const Tick bwd = micro(ig) + micro(wg);
    // Activations crossing the stage boundary, derived from the
    // boundary layer's declared forward comm unless given.
    Bytes act = _opts.activationBytes;
    if (act == 0)
        act = _spec.layers[_layerHi - 1].fwdCommSize;
    if (act == 0)
        act = 1 * MiB;
    act = std::max<Bytes>(1, act / Bytes(_opts.microbatches));
    bool has_group = false;
    for (int d : _dataDims)
        has_group = has_group || _sys.topology().dim(d).size > 1;

    for (int pass = 0; pass < _opts.numPasses; ++pass) {
        for (int m = 0; m < _opts.microbatches; ++m) {
            if (_prev != kNodeInvalid) {
                _stats.bubble += co_await receive(
                    _prev, tagFor(pass, m, false, _stage - 1));
            }
            _stats.compute += fwd;
            co_await busy(fwd);
            if (_next != kNodeInvalid)
                _sys.sendP2P(_next, act, tagFor(pass, m, false, _stage));
        }
        for (int m = _opts.microbatches - 1; m >= 0; --m) {
            if (_next != kNodeInvalid) {
                _stats.bubble += co_await receive(
                    _next, tagFor(pass, m, true, _stage));
            }
            _stats.compute += bwd;
            co_await busy(bwd);
            if (_prev != kNodeInvalid)
                _sys.sendP2P(_prev, act, tagFor(pass, m, true, _stage - 1));
        }
        // The flush: all-reduce the stage's weight gradients across
        // the data-parallel dimensions before the next pass.
        if (wg_bytes == 0 || !has_group)
            continue;
        CollectiveRequest req;
        req.kind = CollectiveKind::AllReduce;
        req.bytes = wg_bytes;
        req.dims = _dataDims;
        req.layer = _stage; // per-stage breakdown
        const Tick issued = _sys.now();
        auto handle = _sys.issueCollective(req);
        co_await settle(handle);
        _stats.commWg += _sys.now() - issued;
    }
}

// --- PipelineRun ---------------------------------------------------------

const StageStats &
PipelineRun::stage(int s) const
{
    for (const auto &n : _nodes) {
        if (n->stage() == s)
            return n->stats();
    }
    fatal("no node holds stage %d", s);
    return _nodes.front()->stats(); // unreachable
}

double
PipelineRun::bubbleRatio() const
{
    if (_makespan == 0)
        return 0;
    double total = 0;
    for (int s = 0; s < numStages(); ++s)
        total += static_cast<double>(stage(s).bubble);
    return total / (static_cast<double>(_makespan) * numStages());
}

void
PipelineRun::exportStats(StatGroup &g) const
{
    g.set("makespan.ticks", double(_makespan));
    g.set("bubble.ratio", bubbleRatio());
    g.set("stages", double(numStages()));
    for (int s = 0; s < numStages(); ++s) {
        const StageStats &st = stage(s);
        const std::string prefix = strprintf("stage%d.", s);
        g.set(prefix + "layers", double(st.layers));
        g.set(prefix + "compute", double(st.compute));
        g.set(prefix + "bubble", double(st.bubble));
        g.set(prefix + "comm_wg", double(st.commWg));
    }
}

} // namespace astra

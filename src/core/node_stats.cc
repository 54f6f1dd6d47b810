#include "core/node_stats.hh"

#include <iterator>
#include <string>

#include "topo/topology.hh"

namespace astra
{

namespace
{

constexpr const char *kCounterNames[] = {
    "issued.sets",     "issued.chunks",  "issued.bytes",
    "sent.messages",   "sent.bytes",     "sent.bytes.p2p",
    "completed.chunks", "chunk.payloads", "completed.sets",
    "fault.retries",   "fault.retries_exhausted", "exposed.cycles",
};
static_assert(std::size(kCounterNames) == NodeStats::kCounters);

constexpr const char *kDelayNames[] = {"queue", "network"};
static_assert(std::size(kDelayNames) == NodeStats::kDelays);

/**
 * Grow @p into to @p from's size, then merge slot by slot (a nested
 * vector of slots folds recursively).
 */
template <class T>
void
foldSlots(std::vector<T> &into, const std::vector<T> &from)
{
    if (into.size() < from.size())
        into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) {
        if constexpr (requires { into[i].merge(from[i]); })
            into[i].merge(from[i]);
        else
            foldSlots(into[i], from[i]);
    }
}

} // namespace

void
NodeStats::recordDelay(Delay what, int i, LayerId layer, double v)
{
    const auto slot = std::size_t(i);
    PhaseDelay &d = grown(_delay[std::size_t(what)], slot);
    d.acc.sample(v);
    d.hist.record(v);
    if (layer >= 0) {
        auto &layers = _layerDelay[std::size_t(what)];
        grown(grown(layers, std::size_t(layer)), slot).sample(v);
    }
}

void
NodeStats::merge(const NodeStats &o)
{
    for (std::size_t c = 0; c < kCounters; ++c)
        _counters[c].merge(o._counters[c]);
    foldSlots(_sentBytesByDim, o._sentBytesByDim);
    for (std::size_t w = 0; w < kDelays; ++w) {
        foldSlots(_delay[w], o._delay[w]);
        foldSlots(_layerDelay[w], o._layerDelay[w]);
    }
    foldSlots(_hists, o._hists);
}

void
NodeStats::exportTo(StatGroup &g, const Topology &topo) const
{
    for (std::size_t c = 0; c < kCounters; ++c) {
        if (_counters[c].touched)
            g.inc(kCounterNames[c], _counters[c].value);
    }
    for (std::size_t d = 0; d < _sentBytesByDim.size(); ++d) {
        if (_sentBytesByDim[d].touched)
            g.inc("sent.bytes." + topo.dim(int(d)).name,
                  _sentBytesByDim[d].value);
    }
    for (std::size_t w = 0; w < kDelays; ++w) {
        const std::string what = kDelayNames[w];
        for (std::size_t i = 0; i < _delay[w].size(); ++i) {
            const PhaseDelay &d = _delay[w][i];
            if (d.acc.count() == 0)
                continue;
            const std::string name = what + ".P" + std::to_string(i);
            g.accumulatorRef(name).merge(d.acc);
            g.histogramRef(name).merge(d.hist);
        }
        const auto &layers = _layerDelay[w];
        for (std::size_t l = 0; l < layers.size(); ++l) {
            for (std::size_t i = 0; i < layers[l].size(); ++i) {
                if (layers[l][i].count() == 0)
                    continue;
                g.accumulatorRef("layer" + std::to_string(l) + "." + what +
                                 ".P" + std::to_string(i))
                    .merge(layers[l][i]);
            }
        }
    }
    for (std::size_t h = 0; h < _hists.size(); ++h) {
        if (_hists[h].count() == 0)
            continue;
        const std::string name =
            h == kExposedWait    ? std::string("exposed.wait")
            : h == kChunkLatency ? std::string("chunk.latency")
                                 : std::string("chunk.latency.") +
                                       toString(CollectiveKind(
                                           h - kChunkLatency - 1));
        g.histogramRef(name).merge(_hists[h]);
    }
}

} // namespace astra

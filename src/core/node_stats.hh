/**
 * @file
 * NodeStats — the numbers one NPU's system layer (and the workload
 * driving it) records during a run, held in plain indexed slots.
 *
 * Recording is an index and an add: no name is built and no map is
 * touched until exportTo() names every recorded slot, once, into a
 * StatGroup. The Cluster folds its nodes' records by index, in node
 * order, and names the fold once into the "sys" group; Sys::stats()
 * names a single node's record through the same function.
 *
 * Key-set rule: a key is present iff something was recorded into its
 * slot (a counter add, even of zero; a sample into an accumulator or
 * histogram).
 */

#ifndef ASTRA_CORE_NODE_STATS_HH
#define ASTRA_CORE_NODE_STATS_HH

#include <array>
#include <cstddef>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace astra
{

class Topology;

/** One node's recorded stats, named only by exportTo(). */
class NodeStats
{
  public:
    /** Fixed-name counters ("issued.sets", "sent.messages", ...). */
    enum class Counter : std::size_t
    {
        IssuedSets,
        IssuedChunks,
        IssuedBytes,
        SentMessages,
        SentBytes,
        SentBytesP2P,
        CompletedChunks,
        ChunkPayloads,
        CompletedSets,
        FaultRetries,
        FaultRetriesExhausted,
        ExposedCycles,
    };
    static constexpr std::size_t kCounters =
        std::size_t(Counter::ExposedCycles) + 1;

    /**
     * Per-phase delay families "<what>.P<i>": the scheduler records
     * Queue (i = 0 is the ready queue, i = p + 1 the LSQ of phase p),
     * Sys records Network (i = p + 1).
     */
    enum class Delay : std::size_t
    {
        Queue,
        Network,
    };
    static constexpr std::size_t kDelays = std::size_t(Delay::Network) + 1;

    /** Add @p v to counter @p c. */
    void
    add(Counter c, double v = 1.0)
    {
        _counters[std::size_t(c)].add(v);
    }

    /** Add @p bytes to "sent.bytes.<name of dim @p dim>". */
    void
    addSentBytes(int dim, double bytes)
    {
        grown(_sentBytesByDim, std::size_t(dim)).add(bytes);
    }

    /**
     * Record delay @p v as "<what>.P<i>" (accumulator and histogram)
     * and, for a layer-tagged chunk, as "layer<l>.<what>.P<i>".
     */
    void recordDelay(Delay what, int i, LayerId layer, double v);

    /** Record "chunk.latency" and "chunk.latency.<kind>". */
    void
    recordChunkLatency(CollectiveKind kind, double v)
    {
        grown(_hists, kChunkLatency).record(v);
        grown(_hists, kChunkLatency + 1 + std::size_t(kind)).record(v);
    }

    /** Record one exposed wait: "exposed.cycles" and "exposed.wait". */
    void
    recordExposed(double cycles)
    {
        add(Counter::ExposedCycles, cycles);
        grown(_hists, kExposedWait).record(cycles);
    }

    /**
     * Fold @p o into this record slot by slot: counters add,
     * accumulators and histograms merge sample-exactly. Folding nodes
     * in node order adds every double in the order a name-keyed
     * StatGroup::merge of the same nodes would.
     */
    void merge(const NodeStats &o);

    /**
     * Name every recorded slot into @p g; @p topo supplies the
     * dimension names of "sent.bytes.<dim>".
     */
    void exportTo(StatGroup &g, const Topology &topo) const;

  private:
    /** A counter and whether anything was ever added to it. */
    struct Tally
    {
        double value = 0;
        bool touched = false;

        void
        add(double v)
        {
            value += v;
            touched = true;
        }

        void
        merge(const Tally &o)
        {
            if (o.touched)
                add(o.value);
        }
    };

    struct PhaseDelay
    {
        Accumulator acc;
        Histogram hist;

        void
        merge(const PhaseDelay &o)
        {
            acc.merge(o.acc);
            hist.merge(o.hist);
        }
    };

    /** Slots of _hists; chunk.latency.<kind> follow chunk.latency. */
    static constexpr std::size_t kExposedWait = 0;
    static constexpr std::size_t kChunkLatency = 1;

    /** Slot @p i of @p v, growing it on first use. */
    template <class T>
    static T &
    grown(std::vector<T> &v, std::size_t i)
    {
        if (i >= v.size()) [[unlikely]]
            v.resize(i + 1);
        return v[i];
    }

    std::array<Tally, kCounters> _counters{};
    std::vector<Tally> _sentBytesByDim;
    /** By Delay, then phase slot i. */
    std::array<std::vector<PhaseDelay>, kDelays> _delay;
    /** By Delay, then layer, then phase slot i. */
    std::array<std::vector<std::vector<Accumulator>>, kDelays> _layerDelay;
    std::vector<Histogram> _hists; //!< exposed.wait, chunk.latency[.kind]
};

} // namespace astra

#endif // ASTRA_CORE_NODE_STATS_HH

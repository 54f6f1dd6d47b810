/**
 * @file
 * Lightweight statistics package (counters, accumulators, histograms,
 * and the metric registry that renders them all as JSON).
 *
 * The system layer publishes per-phase queue and network delays through
 * these (the P0..P4 breakdown of Fig. 12b); the workload layer publishes
 * per-layer compute / communication / exposed-communication time; the
 * network backends publish per-link utilization and per-hop latency.
 *
 * Everything here is observer-only: recording a sample must never
 * schedule an event or otherwise perturb simulated time (see the
 * observer contract in DESIGN.md).
 */

#ifndef ASTRA_COMMON_STATS_HH
#define ASTRA_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>

#include "common/types.hh"

namespace astra
{

/**
 * NaN-free division for utilization math: a cluster that ran zero
 * ticks has 0.0 utilization, not NaN (and never Inf).
 */
inline double
safeDiv(double num, double den) noexcept
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Mean/min/max/total accumulator over double samples.
 */
class Accumulator
{
  public:
    /** Record one sample. */
    void
    sample(double v) noexcept
    {
        _sum += v;
        _count += 1;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    std::uint64_t count() const noexcept { return _count; }
    double total() const noexcept { return _sum; }

    double
    mean() const noexcept
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    double minimum() const noexcept { return _count ? _min : 0.0; }
    double maximum() const noexcept { return _count ? _max : 0.0; }

    /** Merge another accumulator into this one. */
    void
    merge(const Accumulator &o) noexcept
    {
        _sum += o._sum;
        _count += o._count;
        if (o._count) {
            _min = std::min(_min, o._min);
            _max = std::max(_max, o._max);
        }
    }

  private:
    double _sum = 0;
    std::uint64_t _count = 0;
    double _min = 1e300;
    double _max = -1e300;
};

/**
 * Log2-bucketed histogram over non-negative samples (latencies in
 * ticks, sizes in bytes).
 *
 * Bucket 0 holds samples < 1; bucket i (i >= 1) holds [2^(i-1), 2^i).
 * Recording is a handful of integer operations — cheap enough for the
 * network hot path — and two histograms merge bucket-by-bucket exactly
 * (mergeable like Accumulator, so per-node/per-thread instances can be
 * combined without loss). Percentiles are estimated by linear
 * interpolation inside the bucket the rank falls into, clamped to the
 * exact observed min/max.
 */
class Histogram
{
  public:
    /** Bucket count: enough for any double up to 2^62. */
    static constexpr int kBuckets = 64;

    /** Record one sample (negative samples count as 0). */
    void
    record(double v) noexcept
    {
        if (v < 0)
            v = 0;
        _acc.sample(v);
        ++_buckets[std::size_t(bucketOf(v))];
    }

    /** Bucket index a value falls into. */
    static int
    bucketOf(double v) noexcept
    {
        if (v < 1.0)
            return 0;
        // For u >= 1, bit_width(u) == floor(log2(u)) + 1, which is the
        // index of the [2^(i-1), 2^i) bucket holding v.
        const std::uint64_t u = v >= 9.2e18
                                    ? ~std::uint64_t(0)
                                    : static_cast<std::uint64_t>(v);
        return std::min(static_cast<int>(std::bit_width(u)),
                        kBuckets - 1);
    }

    /** Inclusive lower bound of bucket @p i (0 for the underflow). */
    static double
    lowerBound(int i) noexcept
    {
        if (i <= 0)
            return 0.0;
        return std::ldexp(1.0, i - 1); // 2^(i-1)
    }

    /** Exclusive upper bound of bucket @p i. */
    static double
    upperBound(int i) noexcept
    {
        return std::ldexp(1.0, i); // 2^i
    }

    std::uint64_t count() const noexcept { return _acc.count(); }
    double total() const noexcept { return _acc.total(); }
    double mean() const noexcept { return _acc.mean(); }
    double minimum() const noexcept { return _acc.minimum(); }
    double maximum() const noexcept { return _acc.maximum(); }

    /** Samples recorded into bucket @p i. */
    std::uint64_t
    bucketCount(int i) const noexcept
    {
        return _buckets[std::size_t(i)];
    }

    /**
     * Estimated value at percentile @p p (0..100). Exact at p=0/100
     * (observed min/max); otherwise a linear estimate within the
     * bucket containing the rank, clamped to [min, max].
     */
    double percentile(double p) const;

    /** Merge another histogram into this one. */
    void
    merge(const Histogram &o) noexcept
    {
        _acc.merge(o._acc);
        for (int i = 0; i < kBuckets; ++i)
            _buckets[std::size_t(i)] += o._buckets[std::size_t(i)];
    }

  private:
    Accumulator _acc;
    std::array<std::uint64_t, kBuckets> _buckets{};
};

/**
 * A named bag of counters, accumulators and histograms. Hierarchical
 * names use dots ("sys3.queue.P2"). Groups are built at export time:
 * hot paths record into plain indexed slots (NodeStats, LinkUsage)
 * and name them once, here.
 */
class StatGroup
{
  public:
    /** Add @p delta to counter @p name (creates it at zero). */
    void
    inc(const std::string &name, double delta = 1.0)
    {
        _counters[name] += delta;
    }

    /** Set counter @p name to @p value (creates it). */
    void
    set(const std::string &name, double value)
    {
        _counters[name] = value;
    }

    /** Read counter @p name (zero if absent). */
    double
    counter(const std::string &name) const
    {
        auto it = _counters.find(name);
        return it == _counters.end() ? 0.0 : it->second;
    }

    /** Record a sample into accumulator @p name. */
    void
    sample(const std::string &name, double v)
    {
        _accs[name].sample(v);
    }

    /** Record a sample into histogram @p name. */
    void
    record(const std::string &name, double v)
    {
        _hists[name].record(v);
    }

    /** Read accumulator @p name (empty default if absent). */
    const Accumulator &
    accumulator(const std::string &name) const
    {
        static const Accumulator empty;
        auto it = _accs.find(name);
        return it == _accs.end() ? empty : it->second;
    }

    /** Mutable accumulator @p name, created empty on first use. */
    Accumulator &accumulatorRef(const std::string &name)
    {
        return _accs[name];
    }

    /** Mutable histogram @p name, created empty on first use. */
    Histogram &histogramRef(const std::string &name)
    {
        return _hists[name];
    }

    /** Read histogram @p name (empty default if absent). */
    const Histogram &
    histogram(const std::string &name) const
    {
        static const Histogram empty;
        auto it = _hists.find(name);
        return it == _hists.end() ? empty : it->second;
    }

    /** All counters, sorted by name. */
    const std::map<std::string, double> &counters() const
    {
        return _counters;
    }

    /** All accumulators, sorted by name. */
    const std::map<std::string, Accumulator> &accumulators() const
    {
        return _accs;
    }

    /** All histograms, sorted by name. */
    const std::map<std::string, Histogram> &histograms() const
    {
        return _hists;
    }

    /**
     * Sets counters whose names arrive in ascending order: each insert
     * is hinted just past the previous one, so a run of keys costs
     * amortized O(1) apiece instead of a string-compare descent of the
     * tree. An out-of-order name is still set, only not faster.
     */
    class AscendingSetter
    {
      public:
        explicit AscendingSetter(StatGroup &g)
            : _counters(g._counters), _next(g._counters.end())
        {
        }

        void
        set(std::string name, double value)
        {
            _next = std::next(
                _counters.insert_or_assign(_next, std::move(name), value));
        }

      private:
        std::map<std::string, double> &_counters;
        std::map<std::string, double>::iterator _next;
    };

    /**
     * Merge another group into this one: counters add, accumulators
     * and histograms with the same name merge sample-exactly.
     */
    void merge(const StatGroup &o);

    /** Render this group as a JSON object. */
    std::string toJson(int indent = 0) const;

    /** Drop all recorded data; invalidates every *Ref reference. */
    void
    clear()
    {
        _counters.clear();
        _accs.clear();
        _hists.clear();
    }

  private:
    std::map<std::string, double> _counters;
    std::map<std::string, Accumulator> _accs;
    std::map<std::string, Histogram> _hists;
};

/**
 * The metric registry: one named StatGroup per subsystem ("sys",
 * "net", "workload", "cluster", ...), renderable as one JSON document
 * (the --report-json output).
 *
 * Registries merge group-by-group, so the per-candidate registries of
 * a design-space sweep can be combined into one aggregate, and the
 * per-node stat groups of a cluster can be folded into a single "sys"
 * group.
 */
class MetricRegistry
{
  public:
    /** The named group, created empty on first use. */
    StatGroup &group(const std::string &name) { return _groups[name]; }

    /** Read-only lookup; empty default if absent. */
    const StatGroup &
    group(const std::string &name) const
    {
        static const StatGroup empty;
        auto it = _groups.find(name);
        return it == _groups.end() ? empty : it->second;
    }

    /** All groups, sorted by name. */
    const std::map<std::string, StatGroup> &groups() const
    {
        return _groups;
    }

    /** Merge another registry into this one (same-name groups merge). */
    void merge(const MetricRegistry &o);

    /**
     * Serialize the whole tree as one JSON document:
     * {"schema": "astra-metrics-v1", "groups": {...}}. @p extra is
     * spliced verbatim between the schema member and "groups" — raw
     * pre-rendered object members, each line ending in ",\n" (e.g. the
     * fault layer's failureReportJsonMembers). Empty adds nothing and
     * keeps the document byte-identical to the historical output.
     */
    std::string toJson(const std::string &extra = std::string()) const;

    /** Write toJson(@p extra) to @p path; fatal() on I/O error. */
    void writeFile(const std::string &path,
                   const std::string &extra = std::string()) const;

    /** Drop all groups. */
    void clear() { _groups.clear(); }

  private:
    std::map<std::string, StatGroup> _groups;
};

} // namespace astra

#endif // ASTRA_COMMON_STATS_HH

/**
 * @file
 * Deterministic fault-injection subsystem (docs/faults.md).
 *
 * A FaultPlan is a fully deterministic schedule of fabric faults,
 * parsed from `fault = <rule>` configuration lines (or a separate
 * `fault-plan = <file>`):
 *
 *   degrade link=<id> from=<t0> to=<t1|end> factor=<0..1>
 *   down    link=<id> from=<t0> to=<t1|end>
 *   straggle node=<id> factor=<f>
 *   drop    link=<id> every=<n> [from=<t0>] [to=<t1|end>] [limit=<c>]
 *
 * There is no RNG anywhere: packet loss uses a counted drop pattern
 * ("every Nth packet granted link L inside window [t0,t1)"), so a
 * faulted run is bit-for-bit reproducible — the determinism auditor
 * (--digest=verify) and the serial==parallel sweep guarantee hold
 * unchanged.
 *
 * The FaultManager is the query side both network backends consult on
 * their grant paths (effective bandwidth factor, down windows, counted
 * packet drops) and the system layer consults for straggler compute
 * slowdown, retry policy, and ring-channel re-planning around links
 * that are down for the whole run. A run whose retries are exhausted
 * ends in a first-class Degraded/Deadlocked RunOutcome with structured
 * FailureRecords instead of a fatal.
 */

#ifndef ASTRA_FAULT_FAULT_HH
#define ASTRA_FAULT_FAULT_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace astra
{

struct SimConfig;

/**
 * How a simulation ended. Completed is the only outcome possible
 * without a fault plan; plan-driven fault paths never fatal — they
 * degrade. Dropping a RunOutcome hides Degraded/Failed runs from
 * sweep summaries, so the type is [[nodiscard]] and the build turns
 * -Werror=unused-result on: a call that discards one does not compile
 * (ctest `discarded_outcome_compile_fail`). Cast to (void) when the
 * drop is intended.
 */
enum class [[nodiscard]] RunOutcome
{
    Completed,      //!< all collectives finished
    Degraded,       //!< finished what it could; retries were exhausted
    Deadlocked,     //!< work stranded without any recorded failure
    BudgetExceeded, //!< a run budget tripped (docs/robustness.md)
    Interrupted,    //!< cooperative SIGINT/SIGTERM drain
    Failed,         //!< contained per-candidate failure (sweeps)
};

const char *toString(RunOutcome o);

/**
 * Parse a toString(RunOutcome) name back (journal loading). @return
 * false, leaving @p out untouched, for an unknown name.
 */
bool parseRunOutcome(const std::string &name, RunOutcome *out);

/**
 * One retries-exhausted chunk send: which node gave up on which link,
 * when, and after how many attempts (the structured failure report of
 * a Degraded run, rendered as text and into --report-json).
 */
struct FailureRecord
{
    NodeId node = kNodeInvalid;  //!< sender that exhausted its retries
    int link = -1;               //!< link the last attempt was lost on
    StreamId stream = 0;         //!< chunk (or p2p tag) affected
    Tick tick = 0;               //!< when the final attempt was lost
    int retries = 0;             //!< retransmissions before giving up
    std::string reason;
};

/** A per-link bandwidth window [t0, t1); factor == 0 means down. */
struct LinkWindow
{
    int link = -1;
    Tick t0 = 0;
    Tick t1 = 0;          //!< FaultPlan::kEnd = rest of the run
    double factor = 1.0;  //!< effective-bandwidth multiplier in (0,1]
};

/** A straggler node: every compute/endpoint delay is multiplied. */
struct StragglerRule
{
    NodeId node = kNodeInvalid;
    double factor = 1.0;  //!< >= 1 slows the node down
};

/** Counted packet loss: every Nth grant of a link inside a window. */
struct DropRule
{
    int link = -1;
    std::uint64_t every = 0;            //!< drop every Nth granted packet
    Tick t0 = 0;
    Tick t1 = 0;                        //!< FaultPlan::kEnd = open-ended
    std::uint64_t limit = 0;            //!< max drops (0 = unlimited)
};

/**
 * The parsed, normalized fault schedule. Value type: a Cluster copies
 * its plan out of the SimConfig, so sweeps over fault scenarios share
 * nothing between candidates.
 */
class FaultPlan
{
  public:
    /** Open-ended window end ("to=end"): the rest of the run. */
    static constexpr Tick kEnd = kTickInvalid;

    /**
     * Parse one rule into the plan. @return false (with a message in
     * @p err) on a malformed rule; the plan is unchanged then.
     */
    bool parseRule(const std::string &rule, std::string *err);

    /** parseRule that fatals on a malformed rule. */
    void addRule(const std::string &rule);

    /**
     * Load one rule per line from @p path (# comments; CRLF and a
     * missing trailing newline are handled). Collects every malformed
     * line into one fatal, file:line prefixed.
     */
    void loadFile(const std::string &path);

    /**
     * Build the plan a SimConfig describes: every `fault = <rule>`
     * line, plus the rules in `fault-plan = <file>` (if set), plus the
     * retry policy keys. Malformed rules are collected into one fatal
     * listing all of them. The result is normalized.
     */
    static FaultPlan fromConfig(const SimConfig &cfg);

    /**
     * Canonicalize: windows sorted by (link, t0, t1); overlapping or
     * adjacent full-down windows of one link merged; drop and
     * straggler rules sorted. Idempotent.
     */
    void normalize();

    /** No rules at all? An empty plan must change nothing anywhere. */
    bool
    empty() const
    {
        return _windows.empty() && _stragglers.empty() && _drops.empty();
    }

    const std::vector<LinkWindow> &windows() const { return _windows; }
    const std::vector<StragglerRule> &stragglers() const
    {
        return _stragglers;
    }
    const std::vector<DropRule> &drops() const { return _drops; }

    /** Base retransmission timeout, cycles (fault-timeout). */
    Tick retryTimeout = 1000;

    /** Retransmissions before a send fails for good (fault-max-retries). */
    int maxRetries = 3;

  private:
    std::vector<LinkWindow> _windows;
    std::vector<StragglerRule> _stragglers;
    std::vector<DropRule> _drops;
};

/**
 * The query side of the fault layer. One instance per Cluster; both
 * network backends and every Sys consult the same object, so all
 * layers agree on the schedule. Only shouldDropPacket() mutates (its
 * deterministic grant counters), and only the owning cluster's event
 * loop calls it — sweeps stay data-race free because every candidate
 * owns a private FaultManager.
 */
class FaultManager
{
  public:
    /** Takes ownership of @p plan (normalizes it if the caller has not). */
    explicit FaultManager(FaultPlan plan);

    const FaultPlan &plan() const { return _plan; }

    /**
     * Effective-bandwidth multiplier of @p link at @p now: the minimum
     * factor over all covering windows; 1.0 when none covers, 0.0 when
     * the link is down.
     */
    double bandwidthFactor(int link, Tick now) const;

    /**
     * End of the down window covering (@p link, @p now): the tick the
     * link comes back up, kEnd when it is down for the rest of
     * the run, or 0 when the link is not down at @p now.
     */
    Tick downUntil(int link, Tick now) const;

    /** Is @p link inside an open-ended down window at any tick >= t0? */
    bool downForever(int link) const;

    /** Compute/endpoint slowdown of @p node (1.0 = not a straggler). */
    double computeSlowdown(NodeId node) const;

    /**
     * Counted drop decision for one packet granted @p link at @p now.
     * Deterministic: depends only on the grant sequence, which the
     * event queue already orders deterministically. Mutates the
     * per-rule counters — call exactly once per grant.
     */
    bool shouldDropPacket(int link, Tick now);

    /** Packets the drop rules have discarded so far. */
    std::uint64_t dropsInjected() const { return _dropsInjected; }

    /** Retry policy (mirrors the plan; see docs/faults.md). */
    Tick retryTimeout() const { return _plan.retryTimeout; }
    int maxRetries() const { return _plan.maxRetries; }

    /**
     * Feed ring channel @p channel of dimension @p dim, given as its
     * per-node egress links (Fabric::ringLinks), so pickChannel can
     * re-plan ring collectives around channels containing a link that
     * is down for the whole run. The cluster binds every ring channel
     * of the fabric once, before the run.
     */
    void bindRingChannel(int dim, int channel,
                         std::span<const std::int32_t> links);

    /**
     * Ring channel stream @p id should use in @p dim (of @p channels).
     * Without bound ring info, or when every channel is usable (or
     * none is), this is the pre-fault `id % channels` — bit-for-bit
     * the historical choice. Otherwise the stream is re-planned onto
     * the usable channels only.
     */
    int pickChannel(int dim, int channels, StreamId id) const;

  private:
    struct DropState
    {
        DropRule rule;
        std::uint64_t seen = 0;    //!< grants counted in-window
        std::uint64_t dropped = 0; //!< drops charged against limit
    };

    FaultPlan _plan;
    /** Per-link window index (built once; queries are small scans). */
    std::map<int, std::vector<LinkWindow>> _byLink;
    std::map<NodeId, double> _slowdown;
    std::map<int, std::vector<DropState>> _dropsByLink;
    /** Per dim: the bound channels that contain no forever-down link,
     *  ascending. */
    std::vector<std::vector<int>> _usableChannels;
    /** Per dim: channels bound (highest bound channel + 1; 0: none). */
    std::vector<int> _boundChannels;
    std::uint64_t _dropsInjected = 0;
};

/** Human-readable failure report (empty string when nothing failed). */
std::string formatFailureReport(RunOutcome outcome,
                                const std::vector<FailureRecord> &failures);

/**
 * The same report as raw JSON object members ("outcome", "failures"),
 * each line ending in ",\n", ready for MetricRegistry::toJson's extra
 * parameter. Machine-readable side of the Degraded contract.
 */
std::string
failureReportJsonMembers(RunOutcome outcome,
                         const std::vector<FailureRecord> &failures);

} // namespace astra

#endif // ASTRA_FAULT_FAULT_HH

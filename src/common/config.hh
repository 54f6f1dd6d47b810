/**
 * @file
 * Simulator configuration: the input parameters of Table III with the
 * default values of Table IV.
 *
 * A SimConfig fully describes one simulated platform: the logical
 * topology (hierarchical Torus M x N x K or hierarchical AllToAll
 * M x N), link technology per class (intra- vs inter-package), the
 * system-layer scheduler knobs, and the workload-level iteration
 * controls. Configurations can be populated programmatically, from a
 * key=value file, or from --key=value command-line arguments.
 */

#ifndef ASTRA_COMMON_CONFIG_HH
#define ASTRA_COMMON_CONFIG_HH

#include <limits>
#include <string>
#include <vector>

#include "common/types.hh"

namespace astra
{

/** Logical topology family (parameter #8). */
enum class TopologyKind
{
    Torus3D,  //!< hierarchical torus, local x horizontal x vertical
    AllToAll, //!< hierarchical alltoall: local rings + global switches
};

/** Collective algorithm flavour (parameter #3). */
enum class AlgorithmFlavor
{
    Baseline, //!< full all-reduce per dimension (3-phase on a 3D torus)
    Enhanced, //!< local RS -> inter-package AR -> local AG (4-phase)
};

/** Ready-queue scheduling policy (parameter #7). */
enum class SchedulingPolicy
{
    LIFO,
    FIFO,
    /**
     * Order by ascending layer id, then FIFO. Implements Sec. III-E's
     * proposal: the first layers' weight-gradient collectives are
     * fully exposed at the next iteration's start, so they should be
     * "prioritized and completed before communication operations from
     * later layers even though they were issued earlier".
     */
    LayerPriority,
};

/** Network backend granularity (substitution for Garnet; see DESIGN.md). */
enum class NetworkBackend
{
    Analytical, //!< link-level FIFO serialization model
    GarnetLite, //!< packet-level model with credits/VCs
};

/** Packet routing mode (parameter #14). */
enum class PacketRouting
{
    Software, //!< endpoint store-and-forward at every ring hop
    Hardware, //!< network forwards multi-hop messages without endpoint
              //!< involvement
};

/** Injection policy used with hardware routing (parameter #15). */
enum class InjectionPolicy
{
    Normal,
    Aggressive,
};

/**
 * Interconnect energy-cost parameters.
 *
 * The paper leaves energy modelling as future work and points at
 * Arunkumar et al.'s multi-chip energy model [4]; these defaults are
 * representative of that literature: sub-pJ/bit for on-package
 * signalling, a few pJ/bit for off-package links, plus a per-flit
 * router traversal cost.
 */
struct EnergyParams
{
    double localPjPerBit = 0.8;    //!< intra-package link, pJ/bit
    double packagePjPerBit = 4.0;  //!< inter-package link, pJ/bit
    double scaleoutPjPerBit = 20.0; //!< inter-pod ethernet, pJ/bit
    double routerPjPerFlit = 150.0; //!< per-hop router cost, pJ/flit
};

/**
 * One link class's technology parameters (intra- or inter-package).
 */
struct LinkParams
{
    BytesPerCycle bandwidth;  //!< bytes per cycle per link
    Tick latency;             //!< propagation latency, cycles
    double efficiency;        //!< data flits / total flits (#17, #18)
    Bytes packetSize;         //!< packetization unit (#20, #21)
    int rings;                //!< rings built from this class (#9..#11)
};

/**
 * All simulator parameters. Field comments cite Table III numbers.
 */
struct SimConfig
{
    // --- Workload level ---------------------------------------------
    std::string dnnName;      //!< #1: workload input file
    int numPasses = 1;        //!< #2: fwd/bwd iterations

    /** Chrome-trace output path; empty disables tracing. */
    std::string traceFile;

    /**
     * Detailed network-layer metrics (per-link usage, per-hop latency
     * histograms). On by default; bench/metrics_bench turns it off to
     * measure the instrumentation overhead. Purely observational —
     * toggling it never changes simulated time.
     */
    bool netMetrics = true;

    /**
     * Accumulate the determinism auditor's retired-event digest
     * (--digest / digest=true). Observer-only: enabling it never
     * changes simulated time, it only folds each retired event's
     * (tick, priority, sequence) into a 64-bit FNV-1a hash.
     */
    bool digest = false;

    /**
     * Opt-in garnet-lite event coalescing (net-coalesce): fold a busy
     * source link's per-packet pump wake-ups into one batched grant
     * pass where that is provably ordering-equivalent (fault-free
     * source-link grants; see docs/performance.md). Deliveries and
     * comm time are unchanged, but fewer events retire, so the event
     * *digest* differs from a non-coalesced run — hence default off:
     * the digest contract only covers the default configuration.
     */
    bool netCoalesce = false;

    // --- System level ------------------------------------------------
    AlgorithmFlavor algorithm = AlgorithmFlavor::Baseline; //!< #3
    TopologyKind topology = TopologyKind::Torus3D;         //!< #8
    /**
     * Topology dimensions. Torus3D: localDim x horizontalDim x
     * verticalDim (the paper's M x N x K). AllToAll: localDim x
     * packages (horizontalDim == number of packages, verticalDim == 1).
     * Together these determine #4 (num-npus), #5 (num-packages) and
     * #6 (package-rows).
     */
    int localDim = 1;
    int horizontalDim = 1;
    int verticalDim = 1;

    SchedulingPolicy schedulingPolicy = SchedulingPolicy::LIFO; //!< #7
    int globalSwitches = 2;        //!< #12 (alltoall topology only)
    Tick endpointDelay = 10;       //!< #13, cycles per received message
    PacketRouting packetRouting = PacketRouting::Software;     //!< #14
    InjectionPolicy injectionPolicy = InjectionPolicy::Normal; //!< #15
    int preferredSetSplits = 16;   //!< #16: chunks per collective set

    /** Dispatcher: issue threshold T and width P (Sec. V-F: T=8, P=16). */
    int dispatchThreshold = 8;
    int dispatchWidth = 16;

    /**
     * Chunks an LSQ executes concurrently ("the scheduler tries to
     * interleave the execution of chunks within the same queue to
     * fully utilize the bandwidth", Sec. IV-B).
     */
    int lsqConcurrency = 2;

    // --- Network level (Table IV defaults) ---------------------------
    NetworkBackend backend = NetworkBackend::Analytical;

    LinkParams local = {
        /*bandwidth=*/200.0, /*latency=*/90, /*efficiency=*/0.94,
        /*packetSize=*/512, /*rings=*/2,
    };
    LinkParams package = {
        /*bandwidth=*/25.0, /*latency=*/200, /*efficiency=*/0.94,
        /*packetSize=*/256, /*rings=*/2,
    };

    int flitWidthBits = 1024; //!< #19
    Tick routerLatency = 1;   //!< #25
    int vcsPerVnet = 50;      //!< #24
    int buffersPerVc = 5000;  //!< #28, flits of buffering per VC

    // --- Scale-out extension (paper future work: "extend it to a
    //     scale-out fabric, modeling the transport layer") -----------
    /**
     * Pods: copies of the scale-up topology joined through
     * ethernet-class switches. 1 (the default) disables the scale-out
     * dimension entirely.
     */
    int scaleoutDimSize = 1;
    int scaleoutSwitches = 2;  //!< inter-pod switches
    LinkParams scaleout = {
        /*bandwidth=*/12.5, /*latency=*/2000, /*efficiency=*/0.90,
        /*packetSize=*/1500, /*rings=*/1,
    };
    /**
     * Per-message transport-layer processing cost at the sender
     * (kernel/NIC stack) charged once for any message whose route
     * crosses a scale-out link.
     */
    Tick scaleoutProtocolDelay = 1500;

    EnergyParams energy;      //!< interconnect energy model

    // --- Fault injection (docs/faults.md) -----------------------------
    /**
     * Fault rules ("fault = degrade link=0 from=0 to=1000 factor=0.5").
     * The one intentionally repeatable key: every occurrence appends.
     * Parsed into a FaultPlan by the core layer; an empty list (the
     * default) leaves every fault hook disabled and the simulation
     * bit-for-bit identical to a build without the fault subsystem.
     */
    std::vector<std::string> faultRules;

    /** Separate fault-plan file, one rule per line ("fault-plan="). */
    std::string faultPlanFile;

    /** Base retransmission timeout in cycles ("fault-timeout="). */
    Tick faultTimeout = 1000;

    /**
     * Retransmissions before a chunk send fails for good and the run
     * degrades ("fault-max-retries=").
     */
    int faultMaxRetries = 3;

    // --- Run supervision (docs/robustness.md) -------------------------
    /**
     * Deterministic run budgets, all checked at event-loop slice
     * boundaries only (never inside an event), so a run that stays
     * under budget retires the identical event stream as an unbudgeted
     * run. 0 disables each ceiling. Exceeding one ends the run with
     * RunOutcome::BudgetExceeded and a structured FailureRecord;
     * partial metrics and the digest so far are still flushed.
     */
    std::uint64_t maxEvents = 0;   //!< total events ("max-events=")
    Tick maxSimTime = 0;           //!< highest tick ("max-sim-time=")
    std::uint64_t maxSlabBytes = 0; //!< event-slab cap ("max-slab-bytes=")

    /**
     * Progress watchdog ("watchdog-window="): events the loop may
     * drain without a single stream/chunk completion before the run is
     * declared livelocked (RunOutcome::Deadlocked with a "watchdog:"
     * failure record). 0 disables the watchdog.
     */
    std::uint64_t watchdogWindow = 0;

    // --- Logical-to-physical mapping (Sec. IV-B) ----------------------
    /**
     * When true, the system layer's *logical* topology (the fields
     * above) is mapped onto a distinct *physical* fabric described by
     * the phys* fields; node ids map one-to-one and messages are
     * routed dimension-ordered across the physical fabric. This
     * implements the paper's claim that the logical topology "might be
     * completely different from the actual physical network topology"
     * (e.g. a 3D logical torus evaluated on a 1D physical ring, or a
     * logical alltoall on a physical torus).
     */
    bool physicalDistinct = false;
    TopologyKind physTopology = TopologyKind::Torus3D;
    int physLocalDim = 1;
    int physHorizontalDim = 1;
    int physVerticalDim = 1;
    int physGlobalSwitches = 2;

    /** The SimConfig describing the physical fabric (self when 1:1). */
    SimConfig physicalConfig() const;

    // ------------------------------------------------------------------

    /** Total NPU count (#4), across all pods. */
    int
    numNpus() const
    {
        return localDim * horizontalDim * verticalDim * scaleoutDimSize;
    }

    /** Total package count (#5). */
    int numPackages() const { return horizontalDim * verticalDim; }

    /** Convenience: set Torus3D dimensions M x N x K. */
    SimConfig &torus(int m, int n, int k);

    /** Convenience: set AllToAll dimensions M x P (P packages). */
    SimConfig &allToAll(int m, int packages, int switches = 2);

    /** Set one parameter from its string name/value; fatal on unknown. */
    void set(const std::string &key, const std::string &value);

    /**
     * set() without the fatal: @return false with a message in @p err
     * on an unknown key or a bad value, leaving the config unchanged.
     * The building block for collected multi-error reporting.
     */
    bool trySet(const std::string &key, const std::string &value,
                std::string *err);

    /** Every key trySet() accepts, aliases included (normalized). */
    static std::vector<std::string> keyNames();

    /**
     * Load key=value lines (# comments) from @p path. CRLF line
     * endings and a missing trailing newline are handled. All problems
     * (malformed lines, unknown/duplicate keys, out-of-range values)
     * are collected and reported at once, file:line each, in a single
     * fatal().
     */
    void loadFile(const std::string &path);

    /**
     * Sanity-check the configuration: every keyed field against its
     * key's range, then the rules that span fields. fatal() with a
     * message if bad.
     */
    void validate() const;

    /** Multi-line human-readable dump. */
    std::string toString() const;
};

/**
 * Accepted values of a numeric parameter: from lo (exclusive when
 * loOpen) up to hi inclusive. The default accepts any value.
 */
struct Range
{
    double lo = -std::numeric_limits<double>::infinity();
    bool loOpen = false;
    double hi = std::numeric_limits<double>::infinity();
};

constexpr Range
atLeast(double lo)
{
    return Range{lo};
}

inline constexpr Range kPositive{0, true};
inline constexpr Range kUnitInterval{0, true, 1};

/**
 * Checked scalar parsers, shared by the SimConfig keys and the
 * command-line flags of the tools and benches. Each parses the whole
 * of @p text and writes @p out only if the value is well formed and
 * inside @p range. @return what is wrong ("'abc' is not an integer",
 * "must be >= 1, got 0"), empty on success. Doubles must be finite.
 */
std::string parseValue(const std::string &text, int *out, Range range = {});
std::string parseValue(const std::string &text, std::uint64_t *out,
                       Range range = {});
std::string parseValue(const std::string &text, double *out,
                       Range range = {});
std::string parseValue(const std::string &text, bool *out);
/** A byte count with an optional KB/MB/GB suffix (see parseBytes). */
std::string parseSize(const std::string &text, Bytes *out, Range range = {});

/**
 * The spellings of one config enum, indexed by value: the display name
 * first (what toString() and SimConfig::toString() print), then the
 * aliases. Lookups ignore case.
 */
using EnumNames = std::vector<std::vector<const char *>>;

const EnumNames &enumNames(TopologyKind);
const EnumNames &enumNames(AlgorithmFlavor);
const EnumNames &enumNames(SchedulingPolicy);
const EnumNames &enumNames(NetworkBackend);
const EnumNames &enumNames(PacketRouting);
const EnumNames &enumNames(InjectionPolicy);

template <typename E>
concept ConfigEnum = requires(E e) { enumNames(e); };

/** Display name of a config enum value. */
template <ConfigEnum E>
const char *
toString(E value)
{
    return enumNames(value)[static_cast<std::size_t>(value)][0];
}

/** Index of the value @p text spells in @p names; see parseValue(). */
std::string parseName(const std::string &text, const EnumNames &names,
                      std::size_t *index);

/** Look @p text up among the spellings of @p out's enum. */
template <ConfigEnum E>
std::string
parseValue(const std::string &text, E *out)
{
    std::size_t index = 0;
    std::string err = parseName(text, enumNames(*out), &index);
    if (err.empty())
        *out = static_cast<E>(index);
    return err;
}

} // namespace astra

#endif // ASTRA_COMMON_CONFIG_HH

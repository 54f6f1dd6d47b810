#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace astra
{

namespace
{

std::string
lower(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

/**
 * First parse error hit by the current trySet() call. Exception-free
 * error plumbing: the leaf helpers record here and leave their target
 * untouched, trySet() reports it.
 */
thread_local std::string t_parseError;

void
parseFail(const std::string &msg)
{
    if (t_parseError.empty())
        t_parseError = msg;
}

void
setBool(bool &dst, const std::string &key, const std::string &value)
{
    const std::string v = lower(value);
    if (v == "1" || v == "true" || v == "on" || v == "yes") {
        dst = true;
    } else if (v == "0" || v == "false" || v == "off" || v == "no") {
        dst = false;
    } else {
        parseFail("parameter '" + key + "': '" + value +
                  "' is not a boolean");
    }
}

void
setInt(int &dst, const std::string &key, const std::string &value,
       int min = INT_MIN)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (value.empty() || end == value.c_str() || errno != 0 ||
        v < INT_MIN || v > INT_MAX) {
        parseFail("parameter '" + key + "': '" + value +
                  "' is not an integer");
        return;
    }
    if (*end != '\0') {
        parseFail("parameter '" + key + "': trailing junk in '" + value +
                  "'");
        return;
    }
    if (v < min) {
        parseFail("parameter '" + key + "': must be >= " +
                  std::to_string(min) + ", got " + value);
        return;
    }
    dst = static_cast<int>(v);
}

void
setTick(Tick &dst, const std::string &key, const std::string &value,
        Tick min = 0)
{
    char *end = nullptr;
    errno = 0;
    if (value.empty() || value[0] == '-') {
        parseFail("parameter '" + key + "': '" + value +
                  "' is not a non-negative integer");
        return;
    }
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || errno != 0) {
        parseFail("parameter '" + key + "': '" + value +
                  "' is not a non-negative integer");
        return;
    }
    if (*end != '\0') {
        parseFail("parameter '" + key + "': trailing junk in '" + value +
                  "'");
        return;
    }
    if (v < min) {
        parseFail("parameter '" + key + "': must be >= " +
                  std::to_string(min) + ", got " + value);
        return;
    }
    dst = v;
}

enum class Range
{
    Any,          //!< any finite value
    Positive,     //!< > 0
    UnitInterval, //!< (0, 1]
};

void
setDouble(double &dst, const std::string &key, const std::string &value,
          Range range = Range::Any)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end == value.c_str() || errno != 0) {
        parseFail("parameter '" + key + "': '" + value +
                  "' is not a number");
        return;
    }
    if (*end != '\0') {
        parseFail("parameter '" + key + "': trailing junk in '" + value +
                  "'");
        return;
    }
    if (range == Range::Positive && !(v > 0)) {
        parseFail("parameter '" + key + "': must be > 0, got " + value);
        return;
    }
    if (range == Range::UnitInterval && !(v > 0 && v <= 1)) {
        parseFail("parameter '" + key + "': must be in (0, 1], got " +
                  value);
        return;
    }
    dst = v;
}

void
setBytes(Bytes &dst, const std::string &key, const std::string &value)
{
    Bytes out = 0;
    std::string err;
    if (!tryParseBytes(value, &out, &err)) {
        parseFail("parameter '" + key + "': " + err);
        return;
    }
    if (out == 0) {
        parseFail("parameter '" + key + "': must be positive");
        return;
    }
    dst = out;
}

/**
 * Enum lookups: parse into @p out on success, parseFail() and leave
 * @p out untouched otherwise. The public fatal-on-bad-input parse*
 * functions wrap these.
 */
bool
lookupTopologyKind(const std::string &s, TopologyKind *out)
{
    const std::string v = lower(s);
    if (v == "torus3d" || v == "torus" || v == "torus2d") {
        *out = TopologyKind::Torus3D;
        return true;
    }
    if (v == "alltoall" || v == "all_to_all" || v == "a2a") {
        *out = TopologyKind::AllToAll;
        return true;
    }
    parseFail("unknown topology '" + s + "'");
    return false;
}

bool
lookupAlgorithmFlavor(const std::string &s, AlgorithmFlavor *out)
{
    const std::string v = lower(s);
    if (v == "baseline") {
        *out = AlgorithmFlavor::Baseline;
        return true;
    }
    if (v == "enhanced") {
        *out = AlgorithmFlavor::Enhanced;
        return true;
    }
    parseFail("unknown algorithm '" + s + "' (baseline/enhanced)");
    return false;
}

bool
lookupSchedulingPolicy(const std::string &s, SchedulingPolicy *out)
{
    const std::string v = lower(s);
    if (v == "lifo") {
        *out = SchedulingPolicy::LIFO;
        return true;
    }
    if (v == "fifo") {
        *out = SchedulingPolicy::FIFO;
        return true;
    }
    if (v == "layer-priority" || v == "layerpriority" ||
        v == "priority") {
        *out = SchedulingPolicy::LayerPriority;
        return true;
    }
    parseFail("unknown scheduling policy '" + s +
              "' (LIFO/FIFO/layer-priority)");
    return false;
}

bool
lookupNetworkBackend(const std::string &s, NetworkBackend *out)
{
    const std::string v = lower(s);
    if (v == "analytical") {
        *out = NetworkBackend::Analytical;
        return true;
    }
    if (v == "garnet" || v == "garnet-lite" || v == "garnetlite") {
        *out = NetworkBackend::GarnetLite;
        return true;
    }
    parseFail("unknown network backend '" + s + "' (analytical/garnet)");
    return false;
}

bool
lookupPacketRouting(const std::string &s, PacketRouting *out)
{
    const std::string v = lower(s);
    if (v == "software") {
        *out = PacketRouting::Software;
        return true;
    }
    if (v == "hardware") {
        *out = PacketRouting::Hardware;
        return true;
    }
    parseFail("unknown packet routing '" + s + "' (software/hardware)");
    return false;
}

bool
lookupInjectionPolicy(const std::string &s, InjectionPolicy *out)
{
    const std::string v = lower(s);
    if (v == "normal") {
        *out = InjectionPolicy::Normal;
        return true;
    }
    if (v == "aggressive") {
        *out = InjectionPolicy::Aggressive;
        return true;
    }
    parseFail("unknown injection policy '" + s + "' (normal/aggressive)");
    return false;
}

std::string
normalizeKey(const std::string &key)
{
    std::string k = lower(key);
    std::replace(k.begin(), k.end(), '_', '-');
    return k;
}

} // namespace

namespace
{

/** Shared tail of the fatal parse* wrappers around the lookups. */
void
consumeParseError()
{
    if (t_parseError.empty())
        return;
    const std::string msg = t_parseError;
    t_parseError.clear();
    fatal("%s", msg.c_str());
}

} // namespace

TopologyKind
parseTopologyKind(const std::string &s)
{
    TopologyKind out = TopologyKind::Torus3D;
    if (!lookupTopologyKind(s, &out))
        consumeParseError();
    return out;
}

AlgorithmFlavor
parseAlgorithmFlavor(const std::string &s)
{
    AlgorithmFlavor out = AlgorithmFlavor::Baseline;
    if (!lookupAlgorithmFlavor(s, &out))
        consumeParseError();
    return out;
}

SchedulingPolicy
parseSchedulingPolicy(const std::string &s)
{
    SchedulingPolicy out = SchedulingPolicy::LIFO;
    if (!lookupSchedulingPolicy(s, &out))
        consumeParseError();
    return out;
}

NetworkBackend
parseNetworkBackend(const std::string &s)
{
    NetworkBackend out = NetworkBackend::Analytical;
    if (!lookupNetworkBackend(s, &out))
        consumeParseError();
    return out;
}

PacketRouting
parsePacketRouting(const std::string &s)
{
    PacketRouting out = PacketRouting::Software;
    if (!lookupPacketRouting(s, &out))
        consumeParseError();
    return out;
}

InjectionPolicy
parseInjectionPolicy(const std::string &s)
{
    InjectionPolicy out = InjectionPolicy::Normal;
    if (!lookupInjectionPolicy(s, &out))
        consumeParseError();
    return out;
}

const char *
toString(TopologyKind k)
{
    switch (k) {
      case TopologyKind::Torus3D: return "Torus3D";
      case TopologyKind::AllToAll: return "AllToAll";
    }
    return "?";
}

const char *
toString(AlgorithmFlavor f)
{
    switch (f) {
      case AlgorithmFlavor::Baseline: return "baseline";
      case AlgorithmFlavor::Enhanced: return "enhanced";
    }
    return "?";
}

const char *
toString(SchedulingPolicy p)
{
    switch (p) {
      case SchedulingPolicy::LIFO: return "LIFO";
      case SchedulingPolicy::FIFO: return "FIFO";
      case SchedulingPolicy::LayerPriority: return "layer-priority";
    }
    return "?";
}

const char *
toString(NetworkBackend b)
{
    switch (b) {
      case NetworkBackend::Analytical: return "analytical";
      case NetworkBackend::GarnetLite: return "garnet-lite";
    }
    return "?";
}

const char *
toString(PacketRouting r)
{
    switch (r) {
      case PacketRouting::Software: return "software";
      case PacketRouting::Hardware: return "hardware";
    }
    return "?";
}

const char *
toString(InjectionPolicy p)
{
    switch (p) {
      case InjectionPolicy::Normal: return "normal";
      case InjectionPolicy::Aggressive: return "aggressive";
    }
    return "?";
}

SimConfig &
SimConfig::torus(int m, int n, int k)
{
    topology = TopologyKind::Torus3D;
    localDim = m;
    horizontalDim = n;
    verticalDim = k;
    return *this;
}

SimConfig &
SimConfig::allToAll(int m, int packages, int switches)
{
    topology = TopologyKind::AllToAll;
    localDim = m;
    horizontalDim = packages;
    verticalDim = 1;
    globalSwitches = switches;
    return *this;
}

namespace
{

/**
 * One parameter: its names (canonical first, then aliases, all in
 * normalized spelling) and the setter that parses a value into the
 * config. Setters report through parseFail() with the normalized key
 * @p k, and leave the config untouched on a bad value.
 */
struct ConfigKey
{
    std::vector<const char *> names;
    void (*set)(SimConfig &c, const std::string &k, const std::string &v);
};

/**
 * Every key trySet() accepts. docs/PARAMETERS.md documents exactly
 * these names (ctest `Config.KeyTableMatchesParametersDoc`).
 */
const std::vector<ConfigKey> &
configKeys()
{
    static const std::vector<ConfigKey> kKeys = {
        {{"dnn-name"}, [](auto &c, auto &, auto &v) { c.dnnName = v; }},
        {{"trace-file"}, [](auto &c, auto &, auto &v) { c.traceFile = v; }},
        {{"net-metrics"},
         [](auto &c, auto &k, auto &v) { setBool(c.netMetrics, k, v); }},
        {{"net-coalesce"},
         [](auto &c, auto &k, auto &v) { setBool(c.netCoalesce, k, v); }},
        {{"digest"},
         [](auto &c, auto &k, auto &v) { setBool(c.digest, k, v); }},
        {{"num-passes"},
         [](auto &c, auto &k, auto &v) { setInt(c.numPasses, k, v, 1); }},
        {{"algorithm"},
         [](auto &c, auto &, auto &v) {
             lookupAlgorithmFlavor(v, &c.algorithm);
         }},
        {{"topology"},
         [](auto &c, auto &, auto &v) { lookupTopologyKind(v, &c.topology); }},
        {{"local-dim"},
         [](auto &c, auto &k, auto &v) { setInt(c.localDim, k, v, 1); }},
        {{"horizontal-dim", "num-packages"},
         [](auto &c, auto &k, auto &v) { setInt(c.horizontalDim, k, v, 1); }},
        {{"vertical-dim", "package-rows"},
         [](auto &c, auto &k, auto &v) { setInt(c.verticalDim, k, v, 1); }},
        {{"scheduling-policy"},
         [](auto &c, auto &, auto &v) {
             lookupSchedulingPolicy(v, &c.schedulingPolicy);
         }},
        {{"global-switches"},
         [](auto &c, auto &k, auto &v) { setInt(c.globalSwitches, k, v, 1); }},
        {{"endpoint-delay"},
         [](auto &c, auto &k, auto &v) { setTick(c.endpointDelay, k, v); }},
        {{"packet-routing"},
         [](auto &c, auto &, auto &v) {
             lookupPacketRouting(v, &c.packetRouting);
         }},
        {{"injection-policy"},
         [](auto &c, auto &, auto &v) {
             lookupInjectionPolicy(v, &c.injectionPolicy);
         }},
        {{"preferred-set-splits"},
         [](auto &c, auto &k, auto &v) {
             setInt(c.preferredSetSplits, k, v, 1);
         }},
        {{"dispatch-threshold"},
         [](auto &c, auto &k, auto &v) {
             setInt(c.dispatchThreshold, k, v, 1);
         }},
        {{"dispatch-width"},
         [](auto &c, auto &k, auto &v) { setInt(c.dispatchWidth, k, v, 1); }},
        {{"lsq-concurrency"},
         [](auto &c, auto &k, auto &v) { setInt(c.lsqConcurrency, k, v, 1); }},
        {{"local-update-time"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.localUpdateTimePerKiB, k, v);
         }},
        {{"backend"},
         [](auto &c, auto &, auto &v) { lookupNetworkBackend(v, &c.backend); }},
        {{"local-rings"},
         [](auto &c, auto &k, auto &v) { setInt(c.local.rings, k, v, 1); }},
        // The paper exposes separate ring counts for the two package
        // dimensions; this implementation uses one inter-package link
        // class, so the counts are tied together.
        {{"vertical-rings", "horizontal-rings", "package-rings"},
         [](auto &c, auto &k, auto &v) { setInt(c.package.rings, k, v, 1); }},
        {{"local-link-bw"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.local.bandwidth, k, v, Range::Positive);
         }},
        {{"package-link-bw"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.package.bandwidth, k, v, Range::Positive);
         }},
        {{"local-link-latency"},
         [](auto &c, auto &k, auto &v) { setTick(c.local.latency, k, v); }},
        {{"package-link-latency"},
         [](auto &c, auto &k, auto &v) { setTick(c.package.latency, k, v); }},
        {{"local-link-efficiency"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.local.efficiency, k, v, Range::UnitInterval);
         }},
        {{"package-link-efficiency"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.package.efficiency, k, v, Range::UnitInterval);
         }},
        {{"local-packet-size"},
         [](auto &c, auto &k, auto &v) { setBytes(c.local.packetSize, k, v); }},
        {{"package-packet-size"},
         [](auto &c, auto &k, auto &v) {
             setBytes(c.package.packetSize, k, v);
         }},
        {{"flit-width"},
         [](auto &c, auto &k, auto &v) { setInt(c.flitWidthBits, k, v, 8); }},
        {{"router-latency"},
         [](auto &c, auto &k, auto &v) { setTick(c.routerLatency, k, v); }},
        {{"vcs-per-vnet"},
         [](auto &c, auto &k, auto &v) { setInt(c.vcsPerVnet, k, v, 1); }},
        {{"buffers-per-vc"},
         [](auto &c, auto &k, auto &v) { setInt(c.buffersPerVc, k, v, 1); }},
        {{"physical-topology"},
         [](auto &c, auto &, auto &v) {
             if (lower(v) == "logical")
                 c.physicalDistinct = false;
             else if (lookupTopologyKind(v, &c.physTopology))
                 c.physicalDistinct = true;
         }},
        {{"physical-local-dim"},
         [](auto &c, auto &k, auto &v) { setInt(c.physLocalDim, k, v, 1); }},
        {{"physical-horizontal-dim", "physical-num-packages"},
         [](auto &c, auto &k, auto &v) {
             setInt(c.physHorizontalDim, k, v, 1);
         }},
        {{"physical-vertical-dim", "physical-package-rows"},
         [](auto &c, auto &k, auto &v) { setInt(c.physVerticalDim, k, v, 1); }},
        {{"physical-global-switches"},
         [](auto &c, auto &k, auto &v) {
             setInt(c.physGlobalSwitches, k, v, 1);
         }},
        {{"scaleout-dim", "pods"},
         [](auto &c, auto &k, auto &v) { setInt(c.scaleoutDimSize, k, v, 1); }},
        {{"scaleout-switches"},
         [](auto &c, auto &k, auto &v) {
             setInt(c.scaleoutSwitches, k, v, 1);
         }},
        {{"scaleout-link-bw"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.scaleout.bandwidth, k, v, Range::Positive);
         }},
        {{"scaleout-link-latency"},
         [](auto &c, auto &k, auto &v) { setTick(c.scaleout.latency, k, v); }},
        {{"scaleout-link-efficiency"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.scaleout.efficiency, k, v, Range::UnitInterval);
         }},
        {{"scaleout-packet-size"},
         [](auto &c, auto &k, auto &v) {
             setBytes(c.scaleout.packetSize, k, v);
         }},
        {{"scaleout-protocol-delay"},
         [](auto &c, auto &k, auto &v) {
             setTick(c.scaleoutProtocolDelay, k, v);
         }},
        {{"scaleout-pj-per-bit"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.energy.scaleoutPjPerBit, k, v);
         }},
        {{"local-pj-per-bit"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.energy.localPjPerBit, k, v);
         }},
        {{"package-pj-per-bit"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.energy.packagePjPerBit, k, v);
         }},
        {{"router-pj-per-flit"},
         [](auto &c, auto &k, auto &v) {
             setDouble(c.energy.routerPjPerFlit, k, v);
         }},
        // The one intentionally repeatable key: rules accumulate. The
        // rule text is validated when the FaultPlan is built, so a bad
        // rule surfaces with every other config problem.
        {{"fault"},
         [](auto &c, auto &, auto &v) { c.faultRules.push_back(v); }},
        {{"fault-plan"}, [](auto &c, auto &, auto &v) { c.faultPlanFile = v; }},
        {{"fault-timeout"},
         [](auto &c, auto &k, auto &v) { setTick(c.faultTimeout, k, v, 1); }},
        {{"fault-max-retries"},
         [](auto &c, auto &k, auto &v) { setInt(c.faultMaxRetries, k, v, 0); }},
        {{"max-events"},
         [](auto &c, auto &k, auto &v) { setTick(c.maxEvents, k, v, 1); }},
        {{"max-sim-time"},
         [](auto &c, auto &k, auto &v) { setTick(c.maxSimTime, k, v, 1); }},
        {{"max-slab-bytes"},
         [](auto &c, auto &k, auto &v) { setBytes(c.maxSlabBytes, k, v); }},
        {{"watchdog-window"},
         [](auto &c, auto &k, auto &v) { setTick(c.watchdogWindow, k, v, 1); }},
    };
    return kKeys;
}

} // namespace

std::vector<std::string>
SimConfig::keyNames()
{
    std::vector<std::string> out;
    for (const ConfigKey &key : configKeys())
        out.insert(out.end(), key.names.begin(), key.names.end());
    return out;
}

void
SimConfig::set(const std::string &key, const std::string &value)
{
    std::string err;
    if (!trySet(key, value, &err))
        fatal("%s", err.c_str());
}

bool
SimConfig::trySet(const std::string &key, const std::string &value,
                  std::string *err)
{
    const std::string k = normalizeKey(key);
    t_parseError.clear();

    const std::vector<ConfigKey> &keys = configKeys();
    auto match = std::find_if(keys.begin(), keys.end(),
                              [&](const ConfigKey &entry) {
                                  return std::find(entry.names.begin(),
                                                   entry.names.end(),
                                                   k) != entry.names.end();
                              });
    if (match != keys.end())
        match->set(*this, k, value);
    else
        parseFail("unknown parameter '" + key + "'");

    if (!t_parseError.empty()) {
        if (err)
            *err = t_parseError;
        t_parseError.clear();
        return false;
    }
    return true;
}

void
SimConfig::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    // Collect every problem — malformed lines, unknown or duplicate
    // keys, out-of-range values — and report them all at once, so one
    // edit-run cycle fixes the whole file.
    std::vector<std::string> errors;
    std::set<std::string> seen;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        // std::getline also yields a final line that lacks the
        // trailing newline, and the trims below strip the '\r' of
        // CRLF files; both kinds of file parse identically to their
        // clean LF-terminated equivalent.
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        // Trim.
        auto b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        auto e = line.find_last_not_of(" \t\r");
        line = line.substr(b, e - b + 1);
        auto eq = line.find('=');
        if (eq == std::string::npos) {
            errors.push_back(strprintf("%s:%d: expected key=value, got "
                                       "'%s'",
                                       path.c_str(), lineno,
                                       line.c_str()));
            continue;
        }
        std::string key = line.substr(0, eq);
        std::string value = line.substr(eq + 1);
        auto trim = [](std::string &s) {
            auto b2 = s.find_first_not_of(" \t\r");
            auto e2 = s.find_last_not_of(" \t\r");
            s = (b2 == std::string::npos) ? "" : s.substr(b2, e2 - b2 + 1);
        };
        trim(key);
        trim(value);
        // "fault" accumulates by design; everything else set twice is
        // almost certainly an editing mistake.
        const std::string norm = normalizeKey(key);
        if (norm != "fault" && !seen.insert(norm).second) {
            errors.push_back(strprintf("%s:%d: duplicate key '%s'",
                                       path.c_str(), lineno,
                                       key.c_str()));
            continue;
        }
        std::string err;
        if (!trySet(key, value, &err))
            errors.push_back(strprintf("%s:%d: %s", path.c_str(), lineno,
                                       err.c_str()));
    }
    if (!errors.empty()) {
        std::string all;
        for (const std::string &err : errors)
            all += "\n  " + err;
        fatal("config file '%s': %zu error(s):%s", path.c_str(),
              errors.size(), all.c_str());
    }
}

std::map<std::string, std::string>
SimConfig::applyArgs(int argc, char **argv)
{
    std::map<std::string, std::string> leftover;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            leftover[arg] = "";
            continue;
        }
        auto eq = arg.find('=');
        if (eq == std::string::npos) {
            leftover[arg.substr(2)] = "";
            continue;
        }
        std::string key = arg.substr(2, eq - 2);
        std::string value = arg.substr(eq + 1);
        // Arguments this config does not accept are left for the
        // caller (the CLI has flags of its own); it decides whether a
        // leftover is an error.
        if (!trySet(key, value, nullptr))
            leftover[key] = value;
    }
    return leftover;
}

void
SimConfig::validate() const
{
    // ASTRA_CHECK rather than bare fatal(): a rejected configuration
    // should always print the offending values, not just the rule.
    ASTRA_CHECK(localDim >= 1 && horizontalDim >= 1 && verticalDim >= 1,
                "topology dimensions must be >= 1 (got %dx%dx%d)",
                localDim, horizontalDim, verticalDim);
    ASTRA_CHECK(numNpus() >= 2, "need at least 2 NPUs, got %d",
                numNpus());
    if (topology == TopologyKind::AllToAll && verticalDim != 1)
        fatal("AllToAll topology is local x packages (vertical-dim==1)");
    ASTRA_CHECK(topology != TopologyKind::AllToAll ||
                    globalSwitches >= 1,
                "AllToAll topology needs >= 1 global switch (got %d)",
                globalSwitches);
    ASTRA_CHECK(local.rings >= 1 && package.rings >= 1,
                "ring counts must be >= 1 (local=%d package=%d)",
                local.rings, package.rings);
    ASTRA_CHECK(local.bandwidth > 0 && package.bandwidth > 0,
                "link bandwidth must be positive (local=%g package=%g)",
                local.bandwidth, package.bandwidth);
    ASTRA_CHECK(local.efficiency > 0 && local.efficiency <= 1 &&
                    package.efficiency > 0 && package.efficiency <= 1,
                "link efficiency must be in (0, 1] (local=%g package=%g)",
                local.efficiency, package.efficiency);
    ASTRA_CHECK(local.packetSize != 0 && package.packetSize != 0,
                "packet sizes must be positive (local=%llu package=%llu)",
                static_cast<unsigned long long>(local.packetSize),
                static_cast<unsigned long long>(package.packetSize));
    ASTRA_CHECK(preferredSetSplits >= 1,
                "preferred-set-splits must be >= 1 (got %d)",
                preferredSetSplits);
    ASTRA_CHECK(dispatchThreshold >= 1 && dispatchWidth >= 1,
                "dispatcher threshold/width must be >= 1 "
                "(threshold=%d width=%d)",
                dispatchThreshold, dispatchWidth);
    ASTRA_CHECK(lsqConcurrency >= 1,
                "lsq-concurrency must be >= 1 (got %d)", lsqConcurrency);
    ASTRA_CHECK(numPasses >= 1, "num-passes must be >= 1 (got %d)",
                numPasses);
    ASTRA_CHECK(flitWidthBits >= 8,
                "flit-width must be at least one byte (got %d bits)",
                flitWidthBits);
    ASTRA_CHECK(vcsPerVnet >= 1 && buffersPerVc >= 1,
                "VC configuration must be >= 1 (vcs-per-vnet=%d "
                "buffers-per-vc=%d)",
                vcsPerVnet, buffersPerVc);
    ASTRA_CHECK(scaleoutDimSize >= 1,
                "scaleout-dim must be >= 1 (got %d)", scaleoutDimSize);
    ASTRA_CHECK(faultTimeout >= 1,
                "fault-timeout must be >= 1 cycle (got %llu)",
                static_cast<unsigned long long>(faultTimeout));
    ASTRA_CHECK(faultMaxRetries >= 0,
                "fault-max-retries must be >= 0 (got %d)",
                faultMaxRetries);
    if (scaleoutDimSize > 1) {
        ASTRA_CHECK(scaleoutSwitches >= 1,
                    "scale-out needs >= 1 switch (got %d)",
                    scaleoutSwitches);
        ASTRA_CHECK(scaleout.bandwidth > 0 && scaleout.packetSize != 0 &&
                        scaleout.efficiency > 0 &&
                        scaleout.efficiency <= 1,
                    "bad scale-out link parameters (bw=%g packet=%llu "
                    "efficiency=%g)",
                    scaleout.bandwidth,
                    static_cast<unsigned long long>(scaleout.packetSize),
                    scaleout.efficiency);
    }
    if (physicalDistinct) {
        ASTRA_CHECK(physLocalDim >= 1 && physHorizontalDim >= 1 &&
                        physVerticalDim >= 1,
                    "physical topology dimensions must be >= 1 "
                    "(got %dx%dx%d)",
                    physLocalDim, physHorizontalDim, physVerticalDim);
        if (physLocalDim * physHorizontalDim * physVerticalDim !=
            numNpus()) {
            fatal("physical topology has %d NPUs but the logical one "
                  "has %d",
                  physLocalDim * physHorizontalDim * physVerticalDim,
                  numNpus());
        }
        if (physTopology == TopologyKind::AllToAll &&
            physVerticalDim != 1)
            fatal("physical AllToAll is local x packages");
        if (physTopology == TopologyKind::AllToAll &&
            physGlobalSwitches < 1)
            fatal("physical AllToAll needs >= 1 global switch");
    }
}

SimConfig
SimConfig::physicalConfig() const
{
    if (!physicalDistinct)
        return *this;
    SimConfig phys = *this;
    phys.topology = physTopology;
    phys.localDim = physLocalDim;
    phys.horizontalDim = physHorizontalDim;
    phys.verticalDim = physVerticalDim;
    phys.globalSwitches = physGlobalSwitches;
    phys.physicalDistinct = false;
    return phys;
}

std::string
SimConfig::toString() const
{
    std::ostringstream os;
    os << "topology=" << astra::toString(topology) << " " << localDim << "x"
       << horizontalDim << "x" << verticalDim
       << " (npus=" << numNpus() << ")\n";
    os << "algorithm=" << astra::toString(algorithm)
       << " scheduling=" << astra::toString(schedulingPolicy)
       << " set-splits=" << preferredSetSplits << " dispatcher(T="
       << dispatchThreshold << ",P=" << dispatchWidth << ")\n";
    os << "backend=" << astra::toString(backend)
       << " routing=" << astra::toString(packetRouting) << "\n";
    os << strprintf("local: bw=%.1fB/cyc lat=%llu eff=%.2f pkt=%llu "
                    "rings=%d\n",
                    local.bandwidth,
                    static_cast<unsigned long long>(local.latency),
                    local.efficiency,
                    static_cast<unsigned long long>(local.packetSize),
                    local.rings);
    os << strprintf("package: bw=%.1fB/cyc lat=%llu eff=%.2f pkt=%llu "
                    "rings=%d switches=%d\n",
                    package.bandwidth,
                    static_cast<unsigned long long>(package.latency),
                    package.efficiency,
                    static_cast<unsigned long long>(package.packetSize),
                    package.rings, globalSwitches);
    // Only when supervised: the default dump stays byte-identical to
    // pre-guard builds, and the journal key (which folds this text)
    // distinguishes runs under different ceilings.
    if (maxEvents != 0 || maxSimTime != 0 || maxSlabBytes != 0 ||
        watchdogWindow != 0) {
        os << strprintf("budget: max-events=%llu max-sim-time=%llu "
                        "max-slab-bytes=%llu watchdog-window=%llu\n",
                        static_cast<unsigned long long>(maxEvents),
                        static_cast<unsigned long long>(maxSimTime),
                        static_cast<unsigned long long>(maxSlabBytes),
                        static_cast<unsigned long long>(watchdogWindow));
    }
    return os.str();
}

} // namespace astra

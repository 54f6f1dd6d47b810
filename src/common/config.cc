#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <type_traits>
#include <variant>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace astra
{

namespace
{

bool
sameName(const std::string &text, const char *name)
{
    return std::equal(text.begin(), text.end(), name,
                      name + std::strlen(name),
                      [](unsigned char a, unsigned char b) {
                          return std::tolower(a) == std::tolower(b);
                      });
}

std::string
normalizeKey(const std::string &key)
{
    std::string k = key;
    std::transform(k.begin(), k.end(), k.begin(), [](unsigned char c) {
        return c == '_' ? '-' : static_cast<char>(std::tolower(c));
    });
    return k;
}

bool
inRange(double v, const Range &r)
{
    return std::isfinite(v) && (r.loOpen ? v > r.lo : v >= r.lo) &&
           v <= r.hi;
}

/** Why @p v, spelled @p text, fails inRange(v, @p r). */
std::string
rangeError(double v, const Range &r, const std::string &text)
{
    if (!std::isfinite(v))
        return "'" + text + "' is not a finite number";
    const std::string bound =
        std::isfinite(r.hi)
            ? strprintf("in %c%g, %g]", r.loOpen ? '(' : '[', r.lo, r.hi)
            : strprintf("%s %g", r.loOpen ? ">" : ">=", r.lo);
    return "must be " + bound + ", got " + text;
}

} // namespace

std::string
parseValue(const std::string &text, int *out, Range range)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || errno != 0 || v < INT_MIN || v > INT_MAX)
        return "'" + text + "' is not an integer";
    if (*end != '\0')
        return "trailing junk in '" + text + "'";
    if (!inRange(double(v), range))
        return rangeError(double(v), range, text);
    *out = static_cast<int>(v);
    return {};
}

std::string
parseValue(const std::string &text, std::uint64_t *out, Range range)
{
    // strtoull would wrap a negative value around.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || errno != 0 ||
        text.find('-') != std::string::npos)
        return "'" + text + "' is not a non-negative integer";
    if (*end != '\0')
        return "trailing junk in '" + text + "'";
    if (!inRange(double(v), range))
        return rangeError(double(v), range, text);
    *out = v;
    return {};
}

std::string
parseValue(const std::string &text, double *out, Range range)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || errno != 0)
        return "'" + text + "' is not a number";
    if (*end != '\0')
        return "trailing junk in '" + text + "'";
    if (!inRange(v, range))
        return rangeError(v, range, text);
    *out = v;
    return {};
}

std::string
parseValue(const std::string &text, bool *out)
{
    for (const char *yes : {"1", "true", "on", "yes"}) {
        if (sameName(text, yes)) {
            *out = true;
            return {};
        }
    }
    for (const char *no : {"0", "false", "off", "no"}) {
        if (sameName(text, no)) {
            *out = false;
            return {};
        }
    }
    return "'" + text + "' is not a boolean";
}

std::string
parseSize(const std::string &text, Bytes *out, Range range)
{
    Bytes v = 0;
    std::string err;
    if (!tryParseBytes(text, &v, &err))
        return err;
    if (!inRange(double(v), range))
        return rangeError(double(v), range, text);
    *out = v;
    return {};
}

std::string
parseName(const std::string &text, const EnumNames &names,
          std::size_t *index)
{
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (const char *name : names[i]) {
            if (sameName(text, name)) {
                *index = i;
                return {};
            }
        }
    }
    std::string err = "'" + text + "' is not one of ";
    for (std::size_t i = 0; i < names.size(); ++i)
        err += (i ? "/" : "") + std::string(names[i][0]);
    return err;
}

const EnumNames &
enumNames(TopologyKind)
{
    static const EnumNames names = {{"Torus3D", "torus", "torus2d"},
                                    {"AllToAll", "all_to_all", "a2a"}};
    return names;
}

const EnumNames &
enumNames(AlgorithmFlavor)
{
    static const EnumNames names = {{"baseline"}, {"enhanced"}};
    return names;
}

const EnumNames &
enumNames(SchedulingPolicy)
{
    static const EnumNames names = {
        {"LIFO"}, {"FIFO"}, {"layer-priority", "layerpriority", "priority"}};
    return names;
}

const EnumNames &
enumNames(NetworkBackend)
{
    static const EnumNames names = {{"analytical"},
                                    {"garnet-lite", "garnet", "garnetlite"}};
    return names;
}

const EnumNames &
enumNames(PacketRouting)
{
    static const EnumNames names = {{"software"}, {"hardware"}};
    return names;
}

const EnumNames &
enumNames(InjectionPolicy)
{
    static const EnumNames names = {{"normal"}, {"aggressive"}};
    return names;
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

template <typename T>
using Field = T &(*)(SimConfig &);

/**
 * A Bytes field: parsed with size suffixes, unlike a Tick or a count.
 * The constructor is explicit so that no uint64 field converts to one.
 */
struct SizeField
{
    explicit SizeField(Field<Bytes> f) : get(f) {}
    Field<Bytes> get;
};

/** A key that is not one plain field; @return the problem, if any. */
using Setter = std::string (*)(SimConfig &c, const std::string &value);

/**
 * One parameter: its names (canonical first, then aliases, all in
 * normalized spelling), the field it sets, and the range that both
 * trySet() and validate() hold a numeric field to.
 */
struct ConfigKey
{
    std::vector<const char *> names;
    std::variant<Field<int>, Field<std::uint64_t>, Field<double>,
                 SizeField, Field<bool>, Field<std::string>,
                 Field<TopologyKind>, Field<AlgorithmFlavor>,
                 Field<SchedulingPolicy>, Field<NetworkBackend>,
                 Field<PacketRouting>, Field<InjectionPolicy>, Setter>
        field;
    Range range = {};
};

template <typename F>
constexpr bool kNumeric = std::is_same_v<F, Field<int>> ||
                          std::is_same_v<F, Field<std::uint64_t>> ||
                          std::is_same_v<F, Field<double>>;

#define FIELD(member) [](SimConfig &c) -> auto & { return c.member; }

/**
 * Every key trySet() accepts. docs/PARAMETERS.md documents exactly
 * these names (ctest `Config.KeyTableMatchesParametersDoc`).
 */
const std::vector<ConfigKey> &
configKeys()
{
    constexpr Range kOne = atLeast(1);
    constexpr Range kNonNegative = atLeast(0);
    static const std::vector<ConfigKey> kKeys = {
        {{"dnn-name", "workload"}, FIELD(dnnName)},
        {{"trace-file"}, FIELD(traceFile)},
        {{"net-metrics"}, FIELD(netMetrics)},
        {{"net-coalesce"}, FIELD(netCoalesce)},
        {{"digest"}, FIELD(digest)},
        {{"num-passes"}, FIELD(numPasses), kOne},
        {{"algorithm"}, FIELD(algorithm)},
        {{"topology"}, FIELD(topology)},
        {{"local-dim"}, FIELD(localDim), kOne},
        {{"horizontal-dim", "num-packages"}, FIELD(horizontalDim), kOne},
        {{"vertical-dim", "package-rows"}, FIELD(verticalDim), kOne},
        {{"scheduling-policy"}, FIELD(schedulingPolicy)},
        {{"global-switches"}, FIELD(globalSwitches), kOne},
        {{"endpoint-delay"}, FIELD(endpointDelay)},
        {{"packet-routing"}, FIELD(packetRouting)},
        {{"injection-policy"}, FIELD(injectionPolicy)},
        {{"preferred-set-splits"}, FIELD(preferredSetSplits), kOne},
        {{"dispatch-threshold"}, FIELD(dispatchThreshold), kOne},
        {{"dispatch-width"}, FIELD(dispatchWidth), kOne},
        {{"lsq-concurrency"}, FIELD(lsqConcurrency), kOne},
        {{"backend"}, FIELD(backend)},
        {{"local-rings"}, FIELD(local.rings), kOne},
        // The paper exposes separate ring counts for the two package
        // dimensions; this implementation uses one inter-package link
        // class, so the counts are tied together.
        {{"vertical-rings", "horizontal-rings", "package-rings"},
         FIELD(package.rings), kOne},
        {{"local-link-bw"}, FIELD(local.bandwidth), kPositive},
        {{"package-link-bw"}, FIELD(package.bandwidth), kPositive},
        {{"local-link-latency"}, FIELD(local.latency)},
        {{"package-link-latency"}, FIELD(package.latency)},
        {{"local-link-efficiency"}, FIELD(local.efficiency), kUnitInterval},
        {{"package-link-efficiency"}, FIELD(package.efficiency),
         kUnitInterval},
        {{"local-packet-size"}, SizeField(FIELD(local.packetSize)),
         kPositive},
        {{"package-packet-size"}, SizeField(FIELD(package.packetSize)),
         kPositive},
        {{"flit-width"}, FIELD(flitWidthBits), atLeast(8)},
        {{"router-latency"}, FIELD(routerLatency)},
        {{"vcs-per-vnet"}, FIELD(vcsPerVnet), kOne},
        {{"buffers-per-vc"}, FIELD(buffersPerVc), kOne},
        {{"physical-topology"},
         [](SimConfig &c, const std::string &v) -> std::string {
             if (sameName(v, "logical")) {
                 c.physicalDistinct = false;
                 return {};
             }
             std::string err = parseValue(v, &c.physTopology);
             if (err.empty())
                 c.physicalDistinct = true;
             return err;
         }},
        {{"physical-local-dim"}, FIELD(physLocalDim), kOne},
        {{"physical-horizontal-dim", "physical-num-packages"},
         FIELD(physHorizontalDim), kOne},
        {{"physical-vertical-dim", "physical-package-rows"},
         FIELD(physVerticalDim), kOne},
        {{"physical-global-switches"}, FIELD(physGlobalSwitches), kOne},
        {{"scaleout-dim", "pods"}, FIELD(scaleoutDimSize), kOne},
        {{"scaleout-switches"}, FIELD(scaleoutSwitches), kOne},
        {{"scaleout-link-bw"}, FIELD(scaleout.bandwidth), kPositive},
        {{"scaleout-link-latency"}, FIELD(scaleout.latency)},
        {{"scaleout-link-efficiency"}, FIELD(scaleout.efficiency),
         kUnitInterval},
        {{"scaleout-packet-size"}, SizeField(FIELD(scaleout.packetSize)),
         kPositive},
        {{"scaleout-protocol-delay"}, FIELD(scaleoutProtocolDelay)},
        {{"scaleout-pj-per-bit"}, FIELD(energy.scaleoutPjPerBit),
         kNonNegative},
        {{"local-pj-per-bit"}, FIELD(energy.localPjPerBit), kNonNegative},
        {{"package-pj-per-bit"}, FIELD(energy.packagePjPerBit),
         kNonNegative},
        {{"router-pj-per-flit"}, FIELD(energy.routerPjPerFlit),
         kNonNegative},
        // The one intentionally repeatable key: rules accumulate. The
        // rule text is validated when the FaultPlan is built, so a bad
        // rule surfaces with every other config problem.
        {{"fault"},
         [](SimConfig &c, const std::string &v) {
             c.faultRules.push_back(v);
             return std::string();
         }},
        {{"fault-plan"}, FIELD(faultPlanFile)},
        {{"fault-timeout"}, FIELD(faultTimeout), kOne},
        {{"fault-max-retries"}, FIELD(faultMaxRetries), kNonNegative},
        // Run budgets: 0 (the default) turns each one off.
        {{"max-events"}, FIELD(maxEvents)},
        {{"max-sim-time"}, FIELD(maxSimTime)},
        {{"max-slab-bytes"}, SizeField(FIELD(maxSlabBytes))},
        {{"watchdog-window"}, FIELD(watchdogWindow)},
    };
    return kKeys;
}

#undef FIELD

/** Parse @p text into @p key's field of @p c; @return the problem. */
std::string
setField(const ConfigKey &key, SimConfig &c, const std::string &text)
{
    return std::visit(
        [&](auto field) -> std::string {
            using F = decltype(field);
            if constexpr (std::is_same_v<F, Setter>) {
                return field(c, text);
            } else if constexpr (std::is_same_v<F, SizeField>) {
                return parseSize(text, &field.get(c), key.range);
            } else if constexpr (std::is_same_v<F, Field<std::string>>) {
                field(c) = text;
                return {};
            } else if constexpr (kNumeric<F>) {
                return parseValue(text, &field(c), key.range);
            } else {
                return parseValue(text, &field(c)); // bool and enums
            }
        },
        key.field);
}

/** Why @p key's field of @p c lies outside its range; empty if inside. */
std::string
checkField(const ConfigKey &key, const SimConfig &c)
{
    // The accessors hand out mutable references; here they only read.
    SimConfig &cfg = const_cast<SimConfig &>(c);
    auto check = [&](double v) -> std::string {
        if (inRange(v, key.range))
            return {};
        return rangeError(v, key.range, strprintf("%g", v));
    };
    return std::visit(
        [&](auto field) -> std::string {
            using F = decltype(field);
            if constexpr (std::is_same_v<F, SizeField>)
                return check(double(field.get(cfg)));
            else if constexpr (kNumeric<F>)
                return check(double(field(cfg)));
            else
                return {};
        },
        key.field);
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
    const std::vector<ConfigKey> &keys = configKeys();
    auto match = std::find_if(keys.begin(), keys.end(),
                              [&](const ConfigKey &entry) {
                                  return std::find(entry.names.begin(),
                                                   entry.names.end(),
                                                   k) != entry.names.end();
                              });
    std::string problem = match == keys.end()
                              ? "unknown parameter '" + key + "'"
                              : setField(*match, *this, value);
    if (problem.empty())
        return true;
    if (err)
        *err = match == keys.end() ? problem
                                   : "parameter '" + k + "': " + problem;
    return false;
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

void
SimConfig::validate() const
{
    for (const ConfigKey &key : configKeys()) {
        const std::string problem = checkField(key, *this);
        if (!problem.empty())
            fatal("parameter '%s': %s", key.names[0], problem.c_str());
    }
    // The rules that span fields.
    ASTRA_CHECK(numNpus() >= 2, "need at least 2 NPUs, got %d",
                numNpus());
    if (topology == TopologyKind::AllToAll && verticalDim != 1)
        fatal("AllToAll topology is local x packages (vertical-dim==1)");
    if (physicalDistinct) {
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

#include "fault/fault.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace astra
{

const char *
toString(RunOutcome o)
{
    switch (o) {
      case RunOutcome::Completed:
        return "completed";
      case RunOutcome::Degraded:
        return "degraded";
      case RunOutcome::Deadlocked:
        return "deadlocked";
      case RunOutcome::BudgetExceeded:
        return "budget-exceeded";
      case RunOutcome::Interrupted:
        return "interrupted";
      case RunOutcome::Failed:
        return "failed";
    }
    return "?";
}

bool
parseRunOutcome(const std::string &name, RunOutcome *out)
{
    static const RunOutcome kAll[] = {
        RunOutcome::Completed,      RunOutcome::Degraded,
        RunOutcome::Deadlocked,     RunOutcome::BudgetExceeded,
        RunOutcome::Interrupted,    RunOutcome::Failed,
    };
    for (RunOutcome o : kAll) {
        if (name == toString(o)) {
            *out = o;
            return true;
        }
    }
    return false;
}

namespace
{

/** Split on any run of spaces/tabs. */
std::vector<std::string>
tokenize(const std::string &s)
{
    std::vector<std::string> out;
    std::string tok;
    std::istringstream in(s);
    while (in >> tok)
        out.push_back(tok);
    return out;
}

/**
 * Parse the value @p text of key @p key with the shared checked parser
 * (parseValue) into @p out, within @p range.
 */
template <typename T>
bool
parseArg(const std::string &key, const std::string &text, T *out,
         Range range, std::string *err)
{
    const std::string why = parseValue(text, out, range);
    if (why.empty())
        return true;
    *err = "bad " + key + "='" + text + "': " + why;
    return false;
}

/** A window bound: a tick, or "end" / "inf" for FaultPlan::kEnd. */
bool
parseTickArg(const std::string &key, const std::string &text, Tick *out,
             std::string *err)
{
    if (text == "end" || text == "inf") {
        *out = FaultPlan::kEnd;
        return true;
    }
    return parseArg(key, text, out, {}, err);
}

/**
 * The key=value tokens of one rule, with required/optional lookup and
 * unknown-key detection.
 */
class RuleArgs
{
  public:
    bool
    parse(const std::vector<std::string> &tokens, std::string *err)
    {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            const std::string &t = tokens[i];
            const std::size_t eq = t.find('=');
            if (eq == std::string::npos || eq == 0) {
                *err = "expected key=value, got '" + t + "'";
                return false;
            }
            const std::string key = t.substr(0, eq);
            if (!_kv.emplace(key, t.substr(eq + 1)).second) {
                *err = "duplicate key '" + key + "'";
                return false;
            }
        }
        return true;
    }

    const std::string *
    get(const std::string &key)
    {
        auto it = _kv.find(key);
        if (it == _kv.end())
            return nullptr;
        _used.push_back(key);
        return &it->second;
    }

    /** After all get()s: complain about keys the verb does not take. */
    bool
    checkNoLeftovers(std::string *err) const
    {
        for (const auto &kv : _kv) {
            if (std::find(_used.begin(), _used.end(), kv.first) ==
                _used.end()) {
                *err = "unknown key '" + kv.first + "'";
                return false;
            }
        }
        return true;
    }

  private:
    std::map<std::string, std::string> _kv;
    std::vector<std::string> _used;
};

bool
wantInt(RuleArgs &args, const std::string &key, bool required, int *out,
        std::string *err)
{
    const std::string *v = args.get(key);
    if (!v) {
        if (required)
            *err = "missing " + key + "=";
        return !required;
    }
    return parseArg(key, *v, out, atLeast(0), err);
}

bool
wantWindow(RuleArgs &args, bool required, Tick *t0, Tick *t1,
           std::string *err)
{
    const std::string *from = args.get("from");
    if (!from)
        from = args.get("t0");
    const std::string *to = args.get("to");
    if (!to)
        to = args.get("t1");
    if (required && (!from || !to)) {
        *err = "missing from=/to=";
        return false;
    }
    if (from && !parseTickArg("from", *from, t0, err))
        return false;
    if (to && !parseTickArg("to", *to, t1, err))
        return false;
    if (*t0 == FaultPlan::kEnd || *t1 <= *t0) {
        *err = "empty window [" + std::to_string(*t0) + ", " +
               (*t1 == FaultPlan::kEnd ? std::string("end")
                                       : std::to_string(*t1)) +
               ")";
        return false;
    }
    return true;
}

} // namespace

bool
FaultPlan::parseRule(const std::string &rule, std::string *err)
{
    const std::vector<std::string> tokens = tokenize(rule);
    if (tokens.empty()) {
        *err = "empty fault rule";
        return false;
    }
    const std::string &verb = tokens[0];
    RuleArgs args;
    if (!args.parse(tokens, err))
        return false;

    if (verb == "degrade" || verb == "down") {
        LinkWindow w;
        w.t1 = kEnd;
        if (!wantInt(args, "link", true, &w.link, err))
            return false;
        if (!wantWindow(args, /*required=*/true, &w.t0, &w.t1, err))
            return false;
        if (verb == "down") {
            w.factor = 0.0;
        } else {
            const std::string *f = args.get("factor");
            if (!f) {
                *err = "missing factor=";
                return false;
            }
            if (!parseArg("factor", *f, &w.factor, kUnitInterval, err))
                return false;
        }
        if (!args.checkNoLeftovers(err))
            return false;
        _windows.push_back(w);
        return true;
    }

    if (verb == "straggle" || verb == "straggler") {
        StragglerRule r;
        int node = -1;
        if (!wantInt(args, "node", true, &node, err))
            return false;
        r.node = node;
        const std::string *f = args.get("factor");
        if (!f) {
            *err = "missing factor=";
            return false;
        }
        if (!parseArg("factor", *f, &r.factor, atLeast(1), err))
            return false;
        if (!args.checkNoLeftovers(err))
            return false;
        _stragglers.push_back(r);
        return true;
    }

    if (verb == "drop") {
        DropRule r;
        r.t1 = kEnd;
        if (!wantInt(args, "link", true, &r.link, err))
            return false;
        const std::string *every = args.get("every");
        if (!every) {
            *err = "missing every=";
            return false;
        }
        if (!parseArg("every", *every, &r.every, atLeast(1), err))
            return false;
        if (!wantWindow(args, /*required=*/false, &r.t0, &r.t1, err))
            return false;
        const std::string *limit = args.get("limit");
        if (limit && !parseArg("limit", *limit, &r.limit, {}, err))
            return false;
        if (!args.checkNoLeftovers(err))
            return false;
        _drops.push_back(r);
        return true;
    }

    *err = "unknown fault verb '" + verb +
           "' (expected degrade/down/straggle/drop)";
    return false;
}

void
FaultPlan::addRule(const std::string &rule)
{
    std::string err;
    if (!parseRule(rule, &err))
        fatal("fault rule '%s': %s", rule.c_str(), err.c_str());
}

void
FaultPlan::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault plan '%s'", path.c_str());
    std::vector<std::string> errors;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // CRLF endings and trailing whitespace.
        const std::size_t last = line.find_last_not_of(" \t\r");
        line = last == std::string::npos ? "" : line.substr(0, last + 1);
        const std::size_t first = line.find_first_not_of(" \t");
        line = first == std::string::npos ? "" : line.substr(first);
        if (line.empty() || line[0] == '#')
            continue;
        std::string err;
        if (!parseRule(line, &err))
            errors.push_back(path + ":" + std::to_string(lineno) + ": " +
                             err);
    }
    if (!errors.empty()) {
        std::string all;
        for (const std::string &e : errors)
            all += "\n  " + e;
        fatal("%zu bad fault rule(s):%s", errors.size(), all.c_str());
    }
}

FaultPlan
FaultPlan::fromConfig(const SimConfig &cfg)
{
    FaultPlan plan;
    std::vector<std::string> errors;
    for (std::size_t i = 0; i < cfg.faultRules.size(); ++i) {
        std::string err;
        if (!plan.parseRule(cfg.faultRules[i], &err))
            errors.push_back("fault rule " + std::to_string(i + 1) +
                             " ('" + cfg.faultRules[i] + "'): " + err);
    }
    if (!errors.empty()) {
        std::string all;
        for (const std::string &e : errors)
            all += "\n  " + e;
        fatal("%zu bad fault rule(s):%s", errors.size(), all.c_str());
    }
    if (!cfg.faultPlanFile.empty())
        plan.loadFile(cfg.faultPlanFile);
    plan.retryTimeout = cfg.faultTimeout;
    plan.maxRetries = cfg.faultMaxRetries;
    plan.normalize();
    return plan;
}

void
FaultPlan::normalize()
{
    std::sort(_windows.begin(), _windows.end(),
              [](const LinkWindow &a, const LinkWindow &b) {
                  if (a.link != b.link)
                      return a.link < b.link;
                  if (a.t0 != b.t0)
                      return a.t0 < b.t0;
                  if (a.t1 != b.t1)
                      return a.t1 < b.t1;
                  return a.factor < b.factor;
              });
    // Merge overlapping/adjacent down windows of one link; degraded
    // (factor > 0) windows stay separate — overlaps resolve to the
    // minimum factor at query time.
    std::vector<LinkWindow> merged;
    for (const LinkWindow &w : _windows) {
        if (!merged.empty()) {
            LinkWindow &p = merged.back();
            if (p.link == w.link && p.factor == 0.0 && w.factor == 0.0 &&
                w.t0 <= p.t1) {
                if (p.t1 != kEnd && (w.t1 == kEnd || w.t1 > p.t1))
                    p.t1 = w.t1;
                continue;
            }
        }
        merged.push_back(w);
    }
    _windows = std::move(merged);

    std::sort(_stragglers.begin(), _stragglers.end(),
              [](const StragglerRule &a, const StragglerRule &b) {
                  if (a.node != b.node)
                      return a.node < b.node;
                  return a.factor < b.factor;
              });
    std::sort(_drops.begin(), _drops.end(),
              [](const DropRule &a, const DropRule &b) {
                  if (a.link != b.link)
                      return a.link < b.link;
                  if (a.t0 != b.t0)
                      return a.t0 < b.t0;
                  return a.every < b.every;
              });
}

FaultManager::FaultManager(FaultPlan plan) : _plan(std::move(plan))
{
    _plan.normalize();
    for (const LinkWindow &w : _plan.windows())
        _byLink[w.link].push_back(w);
    // Several rules targeting one node resolve to the largest factor.
    for (const StragglerRule &r : _plan.stragglers()) {
        double &f = _slowdown[r.node];
        f = std::max(f, r.factor);
    }
    for (const DropRule &r : _plan.drops())
        _dropsByLink[r.link].push_back(DropState{r, 0, 0});
}

namespace
{

inline bool
covers(Tick t0, Tick t1, Tick now)
{
    return t0 <= now && (t1 == FaultPlan::kEnd || now < t1);
}

} // namespace

double
FaultManager::bandwidthFactor(int link, Tick now) const
{
    auto it = _byLink.find(link);
    if (it == _byLink.end())
        return 1.0;
    double factor = 1.0;
    for (const LinkWindow &w : it->second) {
        if (covers(w.t0, w.t1, now))
            factor = std::min(factor, w.factor);
    }
    return factor;
}

Tick
FaultManager::downUntil(int link, Tick now) const
{
    auto it = _byLink.find(link);
    if (it == _byLink.end())
        return 0;
    Tick until = 0;
    for (const LinkWindow &w : it->second) {
        if (w.factor == 0.0 && covers(w.t0, w.t1, now)) {
            if (w.t1 == FaultPlan::kEnd)
                return FaultPlan::kEnd;
            until = std::max(until, w.t1);
        }
    }
    return until;
}

bool
FaultManager::downForever(int link) const
{
    auto it = _byLink.find(link);
    if (it == _byLink.end())
        return false;
    for (const LinkWindow &w : it->second) {
        if (w.factor == 0.0 && w.t1 == FaultPlan::kEnd)
            return true;
    }
    return false;
}

double
FaultManager::computeSlowdown(NodeId node) const
{
    auto it = _slowdown.find(node);
    return it == _slowdown.end() ? 1.0 : it->second;
}

bool
FaultManager::shouldDropPacket(int link, Tick now)
{
    auto it = _dropsByLink.find(link);
    if (it == _dropsByLink.end())
        return false;
    bool drop = false;
    for (DropState &st : it->second) {
        if (!covers(st.rule.t0, st.rule.t1, now))
            continue;
        ++st.seen;
        if (!drop && st.seen % st.rule.every == 0 &&
            (st.rule.limit == 0 || st.dropped < st.rule.limit)) {
            ++st.dropped;
            drop = true;
        }
    }
    if (drop)
        ++_dropsInjected;
    return drop;
}

void
FaultManager::bindRingChannel(int dim, int channel,
                              std::span<const std::int32_t> links)
{
    if (std::size_t(dim) >= _boundChannels.size()) {
        _boundChannels.resize(std::size_t(dim) + 1, 0);
        _usableChannels.resize(std::size_t(dim) + 1);
    }
    int &bound = _boundChannels[std::size_t(dim)];
    bound = std::max(bound, channel + 1);
    const bool usable =
        std::none_of(links.begin(), links.end(), [this](std::int32_t l) {
            return l >= 0 && downForever(l);
        });
    if (usable) {
        auto &ok = _usableChannels[std::size_t(dim)];
        ok.insert(std::upper_bound(ok.begin(), ok.end(), channel), channel);
    }
}

int
FaultManager::pickChannel(int dim, int channels, StreamId id) const
{
    const int fallback = static_cast<int>(id % StreamId(channels));
    if (dim < 0 || std::size_t(dim) >= _boundChannels.size() ||
        _boundChannels[std::size_t(dim)] < channels)
        return fallback;
    // The usable channels below `channels`: a prefix, as the list is
    // ascending.
    const std::vector<int> &usable = _usableChannels[std::size_t(dim)];
    const auto ok = std::size_t(
        std::lower_bound(usable.begin(), usable.end(), channels) -
        usable.begin());
    // Every channel usable: keep the historical choice bit-for-bit.
    // None usable: nowhere better to re-plan to; the retry machinery
    // owns what happens next.
    if (ok == 0 || ok == std::size_t(channels))
        return fallback;
    return usable[std::size_t(id % StreamId(ok))];
}

std::string
formatFailureReport(RunOutcome outcome,
                    const std::vector<FailureRecord> &failures)
{
    if (outcome == RunOutcome::Completed && failures.empty())
        return "";
    std::string out = strprintf("outcome: %s\n", toString(outcome));
    out += strprintf("%zu failed transfer(s)\n", failures.size());
    for (const FailureRecord &f : failures) {
        out += strprintf(
            "  node %d link %d stream %llu at tick %llu after %d "
            "retr%s: %s\n",
            f.node, f.link, static_cast<unsigned long long>(f.stream),
            static_cast<unsigned long long>(f.tick), f.retries,
            f.retries == 1 ? "y" : "ies", f.reason.c_str());
    }
    return out;
}

std::string
failureReportJsonMembers(RunOutcome outcome,
                         const std::vector<FailureRecord> &failures)
{
    std::string out =
        strprintf("  \"outcome\": \"%s\",\n", toString(outcome));
    out += "  \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const FailureRecord &f = failures[i];
        out += i ? ",\n    " : "\n    ";
        out += strprintf("{\"node\": %d, \"link\": %d, \"stream\": %llu, "
                         "\"tick\": %llu, \"retries\": %d, "
                         "\"reason\": \"%s\"}",
                         f.node, f.link,
                         static_cast<unsigned long long>(f.stream),
                         static_cast<unsigned long long>(f.tick),
                         f.retries, jsonEscape(f.reason).c_str());
    }
    out += failures.empty() ? "],\n" : "\n  ],\n";
    return out;
}

} // namespace astra

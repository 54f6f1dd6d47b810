#include "lint/rules.hh"

#include <cstddef>
#include <map>

namespace astra::lint
{

namespace
{

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string> kOrderedByKey = {"map", "set", "multimap",
                                             "multiset"};

const std::set<std::string> kBeginNames = {"begin", "cbegin", "rbegin",
                                           "crbegin"};

const std::set<std::string> kWallClockIdents = {
    "gettimeofday",  "clock_gettime",         "localtime",
    "gmtime",        "steady_clock",          "system_clock",
    "high_resolution_clock"};

const std::set<std::string> kWallClockHeaders = {
    "chrono", "ctime", "time.h", "sys/time.h", "sys/timeb.h"};

const std::set<std::string> kRandCalls = {"rand", "srand", "drand48",
                                          "lrand48", "mrand48"};

/** Matching and emission context shared by the token rules. */
class RuleContext
{
  public:
    RuleContext(const LexedFile &file, std::vector<Diagnostic> &out,
                std::vector<SuppressionUse> *uses = nullptr)
        : _file(file), _out(out), _uses(uses)
    {
    }

    const std::vector<Token> &toks() const { return _file.tokens; }
    std::size_t size() const { return _file.tokens.size(); }

    bool
    isIdent(std::size_t i, const char *text) const
    {
        return i < size() && _file.tokens[i].kind == TokKind::kIdent &&
               _file.tokens[i].text == text;
    }

    bool
    isPunct(std::size_t i, const char *text) const
    {
        return i < size() && _file.tokens[i].kind == TokKind::kPunct &&
               _file.tokens[i].text == text;
    }

    bool
    identIn(std::size_t i, const std::set<std::string> &set) const
    {
        return i < size() && _file.tokens[i].kind == TokKind::kIdent &&
               set.count(_file.tokens[i].text) > 0;
    }

    /** Does the file carry the file-level tag @p tag? */
    bool
    fileTagged(const std::string &tag) const
    {
        return _file.fileTags.count(tag) > 0;
    }

    void
    emit(const Token &at, const std::string &rule,
         const std::string &message)
    {
        emitUnlessSuppressed(_file, at.line, at.col, rule, message, _out,
                             _uses);
    }

    void
    emitAtLine(int line, const std::string &rule,
               const std::string &message)
    {
        emitUnlessSuppressed(_file, line, 1, rule, message, _out, _uses);
    }

    /**
     * Index of the token matching the opener at @p open (one of
     * ( [ { < with its closer), or size() when unbalanced. For `<`
     * the scan also aborts on `;` at depth 1 — a lone less-than in an
     * expression never closes.
     */
    std::size_t
    findMatch(std::size_t open) const
    {
        const std::string &o = _file.tokens[open].text;
        std::string close = o == "(" ? ")"
                            : o == "[" ? "]"
                            : o == "{" ? "}"
                                       : ">";
        int depth = 1;
        for (std::size_t i = open + 1; i < size(); ++i) {
            const Token &t = _file.tokens[i];
            if (t.kind != TokKind::kPunct)
                continue;
            if (o == "<" && (t.text == ";" || t.text == "{") && depth > 0)
                return size();
            if (t.text == o)
                ++depth;
            else if (t.text == close && --depth == 0)
                return i;
        }
        return size();
    }

  private:
    const LexedFile &_file;
    std::vector<Diagnostic> &_out;
    std::vector<SuppressionUse> *_uses;
};

// ---- no-rand / no-float / no-throw / no-abort ------------------------

/** The single-token bans: each finding is one identifier or call. */
void
ruleBannedTokens(RuleContext &ctx)
{
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        const Token &t = ctx.toks()[i];
        const bool call = ctx.isPunct(i + 1, "(");
        if (ctx.identIn(i, kRandCalls) && call) {
            ctx.emit(t, "no-rand",
                     t.text + "() breaks simulation determinism (use "
                              "astra::Rng, common/random.hh)");
        } else if (ctx.isIdent(i, "random_device")) {
            ctx.emit(t, "no-rand",
                     "std::random_device is a nondeterministic seed "
                     "source (use astra::Rng, common/random.hh)");
        } else if (ctx.isIdent(i, "float")) {
            // A keyword token matches everywhere the type can appear —
            // declarations, std::vector<float>, using F = float, casts
            // — and never inside comments or strings (the grep rule's
            // blind spots).
            ctx.emit(t, "no-float",
                     "float is too narrow for ticks/sizes above 2^24 "
                     "(use Tick/Bytes/double)");
        } else if (ctx.isIdent(i, "throw")) {
            ctx.emit(t, "no-throw",
                     "raw throw (use ASTRA_CHECK/fatal()/panic() so "
                     "failures report context)");
        } else if ((ctx.isIdent(i, "abort") || ctx.isIdent(i, "terminate")) &&
                   call) {
            ctx.emit(t, "no-abort",
                     t.text + "() skips the failure handler (use "
                              "ASTRA_CHECK/fatal()/panic())");
        }
    }
}

// ---- no-wall-clock ---------------------------------------------------

void
ruleNoWallClock(RuleContext &ctx, const LexedFile &file)
{
    for (const IncludeDirective &inc : file.includes) {
        if (inc.angled && kWallClockHeaders.count(inc.target) > 0) {
            ctx.emitAtLine(inc.line, "no-wall-clock",
                           "#include <" + inc.target +
                               "> pulls in wall-clock time (simulated "
                               "time comes from the event queue only)");
        }
    }
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (ctx.isIdent(i, "std") && ctx.isPunct(i + 1, "::") &&
            ctx.isIdent(i + 2, "chrono")) {
            ctx.emit(ctx.toks()[i], "no-wall-clock",
                     "std::chrono in simulation code (simulated time "
                     "comes from the event queue only)");
            continue;
        }
        if (ctx.identIn(i, kWallClockIdents)) {
            ctx.emit(ctx.toks()[i], "no-wall-clock",
                     ctx.toks()[i].text +
                         " reads wall-clock time (simulated time comes "
                         "from the event queue only)");
            continue;
        }
        if (ctx.isIdent(i, "clock") && ctx.isPunct(i + 1, "(") &&
            ctx.isPunct(i + 2, ")")) {
            ctx.emit(ctx.toks()[i], "no-wall-clock",
                     "clock() reads processor time (simulated time "
                     "comes from the event queue only)");
            continue;
        }
        if (ctx.isIdent(i, "time") && ctx.isPunct(i + 1, "(") &&
            (ctx.isIdent(i + 2, "NULL") || ctx.isIdent(i + 2, "nullptr") ||
             (i + 2 < ctx.size() &&
              ctx.toks()[i + 2].kind == TokKind::kNumber &&
              ctx.toks()[i + 2].text == "0")) &&
            ctx.isPunct(i + 3, ")")) {
            ctx.emit(ctx.toks()[i], "no-wall-clock",
                     "time(NULL) reads wall-clock time (simulated time "
                     "comes from the event queue only)");
        }
    }
}

// ---- no-naked-new / allocator-tu / hot-path-alloc ---------------------

void
ruleAllocations(RuleContext &ctx)
{
    const bool allocator_tu = ctx.fileTagged("allocator-tu");
    // Only TUs that opted in via the hot-path file tag are checked for
    // every allocation; allocator TUs (the slab/arena implementations
    // themselves) are where the amortized allocations belong.
    const bool hot_path = ctx.fileTagged("hot-path") && !allocator_tu;
    const char *kHotMsg =
        "allocation in a hot-path TU (per-event allocations regress "
        "the slab discipline; use the arena/free-list, or move setup "
        "work out of the pump)";
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if ((ctx.isIdent(i, "make_unique") || ctx.isIdent(i, "make_shared")) &&
            (ctx.isPunct(i + 1, "<") || ctx.isPunct(i + 1, "("))) {
            if (hot_path)
                ctx.emit(ctx.toks()[i], "hot-path-alloc", kHotMsg);
            continue;
        }
        // operator-new declarations are not allocations.
        if (!ctx.isIdent(i, "new") ||
            (i > 0 && ctx.isIdent(i - 1, "operator")))
            continue;
        if (hot_path)
            ctx.emit(ctx.toks()[i], "hot-path-alloc", kHotMsg);
        // Placement new (`new (buf) T`) constructs without allocating,
        // so it is never an ownership leak — but manual lifetime
        // management belongs only in files that declare themselves
        // allocator TUs (slab/arena/SBO implementations) with a
        // file-level tag, so the construct cannot quietly spread into
        // ordinary simulation code.
        if (ctx.isPunct(i + 1, "(")) {
            if (!allocator_tu)
                ctx.emit(ctx.toks()[i], "allocator-tu",
                         "placement new outside an allocator TU (move the "
                         "construct into a slab/arena file tagged "
                         "allocator-tu, or own the object via "
                         "make_unique/containers)");
            continue;
        }
        ctx.emit(ctx.toks()[i], "no-naked-new",
                 "naked new (own memory via containers, unique_ptr or "
                 "arenas)");
    }
}

} // namespace

// ---- unordered-iter --------------------------------------------------

/**
 * Names bound to unordered containers in @p file: variables and
 * parameters declared with an unordered type (or an alias of one),
 * plus functions returning one — iterating a call result is just as
 * order-sensitive.
 */
std::set<std::string>
unorderedNames(const LexedFile &file)
{
    std::set<std::string> names;
    // Matching helpers only; nothing is emitted through this context.
    std::vector<Diagnostic> sink;
    RuleContext c(file, sink);

    std::set<std::string> aliases;

    auto statementHasTypedef = [&](std::size_t i) {
        // Scan back to the statement start for a `typedef` keyword.
        for (std::size_t j = i; j-- > 0;) {
            if (c.isPunct(j, ";") || c.isPunct(j, "{") ||
                c.isPunct(j, "}"))
                return false;
            if (c.isIdent(j, "typedef"))
                return true;
        }
        return false;
    };

    for (std::size_t i = 0; i < file.tokens.size(); ++i) {
        if (!c.identIn(i, kUnorderedTypes) || !c.isPunct(i + 1, "<"))
            continue;
        // `using Alias = std::unordered_map<...>`
        std::size_t head = i;
        if (head >= 2 && c.isPunct(head - 1, "::") &&
            c.isIdent(head - 2, "std"))
            head -= 2;
        if (head >= 3 && c.isPunct(head - 1, "=") &&
            c.isIdent(head - 3, "using") &&
            file.tokens[head - 2].kind == TokKind::kIdent) {
            aliases.insert(file.tokens[head - 2].text);
            continue;
        }
        std::size_t close = c.findMatch(i + 1);
        if (close >= file.tokens.size())
            continue;
        std::size_t j = close + 1;
        while (c.isPunct(j, "*") || c.isPunct(j, "&") ||
               c.isIdent(j, "const"))
            ++j;
        if (j < file.tokens.size() &&
            file.tokens[j].kind == TokKind::kIdent) {
            if (statementHasTypedef(i))
                aliases.insert(file.tokens[j].text);
            else
                names.insert(file.tokens[j].text);
        }
    }

    // Declarations through an alias: `EventSet live;`
    for (std::size_t i = 0; i + 1 < file.tokens.size(); ++i) {
        if (!c.identIn(i, aliases))
            continue;
        std::size_t j = i + 1;
        while (c.isPunct(j, "*") || c.isPunct(j, "&") ||
               c.isIdent(j, "const"))
            ++j;
        if (j < file.tokens.size() &&
            file.tokens[j].kind == TokKind::kIdent)
            names.insert(file.tokens[j].text);
    }
    return names;
}

namespace
{

void
ruleUnorderedIter(RuleContext &ctx, const LexedFile &file,
                  const std::set<std::string> &extra_tracked)
{
    std::set<std::string> tracked = unorderedNames(file);
    tracked.insert(extra_tracked.begin(), extra_tracked.end());

    const char *kMsg =
        "iteration order over an unordered container is "
        "implementation-defined and can leak into simulation state "
        "(breaks the --digest contract); use a deterministic container "
        "or a sorted drain";

    for (std::size_t i = 0; i < ctx.size(); ++i) {
        // `x.begin()` / `x->cbegin()` on a tracked name.
        if (ctx.identIn(i, tracked) &&
            (ctx.isPunct(i + 1, ".") || ctx.isPunct(i + 1, "->")) &&
            ctx.identIn(i + 2, kBeginNames)) {
            ctx.emit(ctx.toks()[i], "unordered-iter", kMsg);
            continue;
        }
        // Ranged-for whose range expression names a tracked container
        // or constructs an unordered one inline.
        if (!ctx.isIdent(i, "for") || !ctx.isPunct(i + 1, "("))
            continue;
        std::size_t close = ctx.findMatch(i + 1);
        if (close >= ctx.size())
            continue;
        // Locate the ranged-for `:` at parenthesis depth 1; a `;`
        // first means a classic for statement.
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (ctx.toks()[j].kind != TokKind::kPunct)
                continue;
            const std::string &p = ctx.toks()[j].text;
            if (p == "(" || p == "[" || p == "{")
                ++depth;
            else if (p == ")" || p == "]" || p == "}")
                --depth;
            else if (depth == 0 && p == ";")
                break;
            else if (depth == 0 && p == ":") {
                colon = j;
                break;
            }
        }
        if (colon == 0)
            continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (ctx.identIn(j, tracked) ||
                ctx.identIn(j, kUnorderedTypes)) {
                ctx.emit(ctx.toks()[j], "unordered-iter", kMsg);
                break;
            }
        }
    }
}

// ---- ptr-key-order ---------------------------------------------------

void
rulePtrKeyOrder(RuleContext &ctx)
{
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (!ctx.identIn(i, kOrderedByKey) || !ctx.isPunct(i + 1, "<"))
            continue;
        if (!(i >= 2 && ctx.isPunct(i - 1, "::") &&
              ctx.isIdent(i - 2, "std")))
            continue;
        // The key is the first top-level template argument; a trailing
        // `*` makes it a raw pointer ordered by address.
        std::size_t last = 0;
        int depth = 0;
        for (std::size_t j = i + 2; j < ctx.size(); ++j) {
            const Token &t = ctx.toks()[j];
            if (t.kind == TokKind::kPunct) {
                if (t.text == "<" || t.text == "(" || t.text == "[")
                    ++depth;
                else if (t.text == ")" || t.text == "]")
                    --depth;
                else if (t.text == ">") {
                    if (depth == 0)
                        break;
                    --depth;
                } else if (t.text == "," && depth == 0) {
                    break;
                } else if (t.text == ";") {
                    break;
                }
            }
            last = j;
        }
        if (last != 0 && ctx.isPunct(last, "*")) {
            ctx.emit(ctx.toks()[i], "ptr-key-order",
                     "std::" + ctx.toks()[i].text +
                         " keyed by a raw pointer orders by address, "
                         "which varies run to run (key by a stable id "
                         "instead)");
        }
    }
}

// ---- ptr-sort --------------------------------------------------------

void
rulePtrSort(RuleContext &ctx)
{
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (!(ctx.isIdent(i, "sort") || ctx.isIdent(i, "stable_sort")) ||
            !ctx.isPunct(i + 1, "("))
            continue;
        std::size_t close = ctx.findMatch(i + 1);
        if (close >= ctx.size())
            continue;
        // Find a lambda comparator among the call arguments.
        for (std::size_t j = i + 2; j < close; ++j) {
            if (!ctx.isPunct(j, "["))
                continue;
            std::size_t intro_end = ctx.findMatch(j);
            if (intro_end >= close || !ctx.isPunct(intro_end + 1, "("))
                break;
            std::size_t params_end = ctx.findMatch(intro_end + 1);
            if (params_end >= close)
                break;
            // Split params at top-level commas; remember the names of
            // pointer-typed ones.
            std::set<std::string> ptr_params;
            int depth = 0;
            bool has_star = false;
            std::string last_ident;
            for (std::size_t k = intro_end + 2; k <= params_end; ++k) {
                const Token &t = ctx.toks()[k];
                bool at_end = k == params_end;
                if (t.kind == TokKind::kPunct && !at_end) {
                    if (t.text == "(" || t.text == "<" || t.text == "[")
                        ++depth;
                    else if (t.text == ")" || t.text == ">" ||
                             t.text == "]")
                        --depth;
                    else if (t.text == "*" && depth == 0)
                        has_star = true;
                }
                if ((at_end ||
                     (t.kind == TokKind::kPunct && t.text == "," &&
                      depth == 0))) {
                    if (has_star && !last_ident.empty())
                        ptr_params.insert(last_ident);
                    has_star = false;
                    last_ident.clear();
                    continue;
                }
                if (t.kind == TokKind::kIdent)
                    last_ident = t.text;
            }
            if (ptr_params.size() < 2)
                break;
            // Body: flag a direct `a < b` / `a > b` between the
            // pointer parameters (comparing members through them is
            // fine).
            std::size_t body = params_end + 1;
            while (body < close && !ctx.isPunct(body, "{"))
                ++body;
            if (body >= close)
                break;
            std::size_t body_end = ctx.findMatch(body);
            for (std::size_t k = body + 1; k + 2 < body_end; ++k) {
                if (ctx.identIn(k, ptr_params) &&
                    (ctx.isPunct(k + 1, "<") || ctx.isPunct(k + 1, ">")) &&
                    ctx.identIn(k + 2, ptr_params)) {
                    ctx.emit(ctx.toks()[i], "ptr-sort",
                             "sort comparator orders by raw pointer "
                             "value, which varies run to run (compare "
                             "a stable id instead)");
                    break;
                }
            }
            break;
        }
    }
}

// ---- signal-unsafe ---------------------------------------------------

/** Identifiers banned in async-signal context, by what they do. */
const std::map<std::string, std::string> kSignalUnsafe = [] {
    std::map<std::string, std::string> m;
    for (const char *id : {"new", "delete", "malloc", "calloc", "free",
                           "realloc", "make_unique", "make_shared"})
        m[id] = "allocates";
    for (const char *id :
         {"lock", "unlock", "try_lock", "lock_guard", "unique_lock",
          "scoped_lock", "shared_lock", "mutex", "condition_variable"})
        m[id] = "locks";
    for (const char *id :
         {"printf", "fprintf", "sprintf", "snprintf", "puts", "putchar",
          "fopen", "fwrite", "fread", "fclose", "fflush", "cout", "cerr",
          "clog", "fatal", "panic", "inform", "warn"})
        m[id] = "performs IO";
    m["throw"] = "throws";
    return m;
}();

/** Keywords that read like `ident (` but are not calls. */
const std::set<std::string> kNotCalls = {
    "if",     "while",   "for",      "switch",        "return",
    "sizeof", "alignof", "decltype", "static_assert", "noexcept",
    "catch",  "typeid",  "alignas"};

/** The std::atomic member operations a handler may call. */
bool
isAtomicOp(const std::string &name)
{
    return name == "store" || name == "load" || name == "exchange" ||
           name.rfind("fetch_", 0) == 0 ||
           name.rfind("compare_exchange_", 0) == 0;
}

/**
 * A function whose head follows a `signal-handler` mark runs between
 * any two instructions of the interrupted thread: the only portable
 * operations are lock-free atomic stores (the POSIX async-signal-safe
 * discipline). malloc holds the heap lock, a mutex the handler's own
 * thread may already hold deadlocks instantly, and stdio buffers are
 * in an unknown state. The rule brace-matches the body that follows
 * the mark and reports every allocation, lock, IO or throw token in
 * it, and every call other than a std::atomic member operation —
 * whatever a callee does is out of sight, so the body stays local.
 */
void
ruleSignalUnsafe(RuleContext &ctx, const LexedFile &file)
{
    for (const auto &[mark_line, m] : file.marks) {
        if (!m.signalHandler)
            continue;
        std::size_t open = 0;
        while (open < ctx.size() && ctx.toks()[open].line < mark_line)
            ++open;
        // The first `{` outside parentheses opens the body; a `;`
        // first means a bodiless declaration.
        while (open < ctx.size() && !ctx.isPunct(open, "{") &&
               !ctx.isPunct(open, ";"))
            open = ctx.isPunct(open, "(") ? ctx.findMatch(open) + 1 : open + 1;
        if (!ctx.isPunct(open, "{"))
            continue;
        std::size_t close = ctx.findMatch(open);
        for (std::size_t k = open + 1; k < close; ++k) {
            const Token &t = ctx.toks()[k];
            if (t.kind != TokKind::kIdent)
                continue;
            auto unsafe = kSignalUnsafe.find(t.text);
            bool member = ctx.isPunct(k - 1, ".") || ctx.isPunct(k - 1, "->");
            std::string what;
            if (unsafe != kSignalUnsafe.end())
                what = "'" + t.text + "' " + unsafe->second;
            else if (ctx.isPunct(k + 1, "(") && kNotCalls.count(t.text) == 0 &&
                     !(member && isAtomicOp(t.text)))
                what = "call to '" + t.text + "'";
            else
                continue;
            ctx.emit(t, "signal-unsafe",
                     what + " inside a signal handler; only std::atomic "
                            "member operations (store, load, exchange, "
                            "fetch_*, compare_exchange_*) may run there — "
                            "set a flag and act at the next event-loop "
                            "boundary");
        }
    }
}

} // namespace

void
emitUnlessSuppressed(const LexedFile &file, int line, int col,
                     const std::string &rule, const std::string &message,
                     std::vector<Diagnostic> &out,
                     std::vector<SuppressionUse> *uses)
{
    auto it = file.marks.find(line);
    if (it != file.marks.end() &&
        (it->second.nolint || it->second.allowed.count(rule) > 0)) {
        if (uses)
            uses->push_back(SuppressionUse{file.path, line, rule});
        return;
    }
    out.push_back(Diagnostic{file.path, line, col, rule, message});
}

const std::vector<RuleInfo> &
allRules()
{
    static const std::vector<RuleInfo> kRules = {
        {"no-rand",
         "rand()/srand()/random_device break bit-for-bit repeatability",
         "route randomness through astra::Rng (common/random.hh)"},
        {"no-wall-clock",
         "wall-clock reads leak host time into simulated time",
         "derive every timestamp from the event queue (Tick)"},
        {"no-float",
         "float loses precision above 2^24; too narrow for ticks/sizes",
         "use Tick/Bytes/double"},
        {"no-naked-new",
         "naked new leaks ownership; the simulator owns memory via "
         "containers/unique_ptr/arenas",
         "use std::make_unique or a container"},
        {"no-throw",
         "raw throw bypasses ASTRA_CHECK/fatal() context reporting",
         "raise failures via ASTRA_CHECK/fatal()/panic()"},
        {"no-abort",
         "abort()/terminate() skip the failure handler and test hooks",
         "raise failures via ASTRA_CHECK/fatal()/panic()"},
        {"unordered-iter",
         "unordered container iteration order can leak into simulation "
         "state and break the --digest contract",
         "use a deterministic container or drain into a sorted vector"},
        {"ptr-key-order",
         "ordered containers keyed by raw pointers order by address "
         "(varies run to run)",
         "key by a stable id (node id, sequence number)"},
        {"ptr-sort",
         "sort comparators over raw pointer values are "
         "run-to-run-nondeterministic",
         "compare a stable id instead of the pointer"},
        {"layer-dag",
         "an include from a lower layer into an upper one inverts the "
         "architecture DAG (workload > core > collective > net/topo > "
         "compute/fault/guard > common)",
         "move the shared declaration down or invert the dependency"},
        {"include-cycle",
         "a cycle in the include graph makes build order and layering "
         "ill-defined",
         "break the cycle with a forward declaration"},
        {"parse-error",
         "the lexer could not tokenize the file (unterminated literal "
         "or comment)",
         "fix the malformed construct"},
        {"allocator-tu",
         "placement new is manual lifetime management and belongs only "
         "in translation units that implement an allocator (slab, "
         "arena, small-buffer storage)",
         "tag the implementing file with a file-level `astra-lint: "
         "allocator-tu` comment, or own the object via "
         "make_unique/containers"},
        {"hot-path-alloc",
         "per-event allocations in hot-path TUs (event queue, "
         "garnet-lite pump) regress the slab discipline",
         "allocate from the arena/free-list, or move the setup out of "
         "the pump"},
        {"signal-unsafe",
         "a function tagged `astra-lint: signal-handler` may run "
         "between any two instructions; allocation, locking, IO, throw "
         "or a call to anything but a std::atomic member operation in "
         "its body deadlocks or corrupts state",
         "restrict handlers to lock-free atomic flag stores and do "
         "the real work at the next event-loop boundary"},
        {"stale-suppression",
         "a suppression that matches zero findings hides nothing and "
         "will silently mask the next real finding at that site",
         "delete the unused allow(...) comment or allowlist entry"},
    };
    return kRules;
}

bool
knownRule(const std::string &id)
{
    for (const RuleInfo &r : allRules()) {
        if (r.id == id)
            return true;
    }
    return false;
}

void
runTokenRules(const LexedFile &file,
              const std::set<std::string> &extra_tracked,
              std::vector<Diagnostic> &out,
              std::vector<SuppressionUse> *uses)
{
    RuleContext ctx(file, out, uses);
    ruleBannedTokens(ctx);
    ruleNoWallClock(ctx, file);
    ruleAllocations(ctx);
    ruleUnorderedIter(ctx, file, extra_tracked);
    rulePtrKeyOrder(ctx);
    rulePtrSort(ctx);
    ruleSignalUnsafe(ctx, file);

    for (const LexError &e : file.errors)
        ctx.emitAtLine(e.line, "parse-error", e.what);
}

} // namespace astra::lint

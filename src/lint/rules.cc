#include "lint/rules.hh"

#include <algorithm>
#include <cstddef>

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

    /** thread-confined(<reason>) annotation on @p line or the line above. */
    bool
    confinedNear(int line) const
    {
        for (int l : {line - 1, line}) {
            auto it = _file.marks.find(l);
            if (it != _file.marks.end() && it->second.threadConfined)
                return true;
        }
        return false;
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

// ---- no-rand ---------------------------------------------------------

void
ruleNoRand(RuleContext &ctx)
{
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (ctx.identIn(i, kRandCalls) && ctx.isPunct(i + 1, "(")) {
            ctx.emit(ctx.toks()[i], "no-rand",
                     ctx.toks()[i].text +
                         "() breaks simulation determinism (use "
                         "astra::Rng, common/random.hh)");
        }
        if (ctx.isIdent(i, "random_device")) {
            ctx.emit(ctx.toks()[i], "no-rand",
                     "std::random_device is a nondeterministic seed "
                     "source (use astra::Rng, common/random.hh)");
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

// ---- no-float --------------------------------------------------------

void
ruleNoFloat(RuleContext &ctx)
{
    // A keyword token matches everywhere the type can appear —
    // declarations, std::vector<float>, using F = float, casts — and
    // never inside comments or strings (the grep rule's blind spots).
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (ctx.isIdent(i, "float")) {
            ctx.emit(ctx.toks()[i], "no-float",
                     "float is too narrow for ticks/sizes above 2^24 "
                     "(use Tick/Bytes/double)");
        }
    }
}

// ---- no-naked-new / allocator-tu -------------------------------------

void
ruleNoNakedNew(RuleContext &ctx)
{
    const bool allocator_tu = ctx.fileTagged("allocator-tu");
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (!ctx.isIdent(i, "new"))
            continue;
        // operator-new declarations are not allocations.
        if (i > 0 && ctx.isIdent(i - 1, "operator"))
            continue;
        // Placement new (`new (buf) T`) constructs without allocating,
        // so it is never an ownership leak — but manual lifetime
        // management belongs only in files that declare themselves
        // allocator TUs (slab/arena/SBO implementations) with a
        // file-level tag, so the construct cannot quietly spread into
        // ordinary simulation code.
        if (ctx.isPunct(i + 1, "(")) {
            if (allocator_tu)
                continue;
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

// ---- no-throw / no-abort ---------------------------------------------

void
ruleNoThrowAbort(RuleContext &ctx)
{
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (ctx.isIdent(i, "throw")) {
            ctx.emit(ctx.toks()[i], "no-throw",
                     "raw throw (use ASTRA_CHECK/fatal()/panic() so "
                     "failures report context)");
            continue;
        }
        if ((ctx.isIdent(i, "abort") || ctx.isIdent(i, "terminate")) &&
            ctx.isPunct(i + 1, "(")) {
            ctx.emit(ctx.toks()[i], "no-abort",
                     ctx.toks()[i].text +
                         "() skips the failure handler (use "
                         "ASTRA_CHECK/fatal()/panic())");
        }
    }
}

// ---- unordered-iter --------------------------------------------------

/**
 * Collect names bound to unordered containers in @p file: variables
 * and parameters declared with an unordered type (or an alias of
 * one), plus functions returning one — iterating a call result is
 * just as order-sensitive.
 */
void
collectUnordered(const LexedFile &file, std::set<std::string> &names)
{
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
}

void
ruleUnorderedIter(RuleContext &ctx, const LexedFile &file,
                  const std::set<std::string> &extra_tracked)
{
    std::set<std::string> tracked = extra_tracked;
    collectUnordered(file, tracked);

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

// ---- shared-state (declaration-indexed) ------------------------------

void
ruleSharedState(RuleContext &ctx, const LexedFile &file,
                const SymbolIndex &index)
{
    for (const VarDecl &v : index.vars) {
        if (v.file != file.path)
            continue;
        // Instance members are per-object state, not static storage;
        // they may still carry guarded-by annotations (checked by
        // unresolved-mutex) but are not required to.
        if (v.scope == VarScope::kClassMember)
            continue;
        if (v.isConst || v.isAtomic || v.isThreadLocal || v.isSync)
            continue;
        if (!v.guardedBy.empty() || v.threadConfined)
            continue;
        ctx.emitAtLine(
            v.line, "shared-state",
            "mutable static-storage variable '" + v.name +
                "' is unsynchronized: make it std::atomic, constexpr "
                "or thread_local, or annotate it `astra-lint: "
                "guarded-by(<mutex>)` / `thread-confined(<reason>)`");
    }
}

// ---- unresolved-mutex ------------------------------------------------

void
ruleUnresolvedMutex(RuleContext &ctx, const LexedFile &file,
                    const SymbolIndex &index)
{
    for (const auto &[line, m] : file.marks) {
        if (m.guardedBy.empty())
            continue;
        if (index.mutexNames.count(m.guardedBy) > 0)
            continue;
        ctx.emitAtLine(line, "unresolved-mutex",
                       "guarded-by(" + m.guardedBy +
                           ") names no mutex declared anywhere in the "
                           "analyzed tree (typo, or the lock was "
                           "removed and the annotation went stale)");
    }
}

// ---- thread-capture --------------------------------------------------

const std::set<std::string> kPoolEntryPoints = {"submit", "forEach",
                                                "parallelFor"};

void
ruleThreadCapture(RuleContext &ctx, const LexedFile &file,
                  const SymbolIndex &index)
{
    for (std::size_t i = 0; i + 1 < ctx.size(); ++i) {
        if (!ctx.identIn(i, kPoolEntryPoints) || !ctx.isPunct(i + 1, "("))
            continue;
        std::size_t close = ctx.findMatch(i + 1);
        if (close >= ctx.size())
            continue;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (!ctx.isPunct(j, "["))
                continue;
            // `x[...]` is a subscript, not a lambda introducer.
            const Token &prev = ctx.toks()[j - 1];
            if (prev.kind == TokKind::kIdent ||
                prev.kind == TokKind::kNumber ||
                (prev.kind == TokKind::kPunct &&
                 (prev.text == "]" || prev.text == ")")))
                continue;
            std::size_t intro_end = ctx.findMatch(j);
            if (intro_end >= close)
                break;
            bool by_ref = false;
            for (std::size_t k = j + 1; k < intro_end; ++k) {
                if (ctx.isPunct(k, "&")) {
                    by_ref = true;
                    break;
                }
            }
            if (!by_ref)
                continue;
            int call_line = ctx.toks()[i].line;
            if (ctx.confinedNear(call_line) ||
                index.threadConfinedAt(file.path, call_line))
                continue;
            ctx.emit(ctx.toks()[j], "thread-capture",
                     "lambda passed to " + ctx.toks()[i].text +
                         "() captures by reference; the worker may "
                         "outlive or race the captured frame (capture "
                         "by value, or annotate the enclosing scope "
                         "`astra-lint: thread-confined(<reason>)` if "
                         "it joins before returning)");
        }
    }
}

// ---- hot-path-alloc --------------------------------------------------

void
ruleHotPathAlloc(RuleContext &ctx)
{
    // Only TUs that opted in via the hot-path file tag are checked;
    // allocator TUs (the slab/arena implementations themselves) are
    // where the amortized allocations belong.
    if (!ctx.fileTagged("hot-path") || ctx.fileTagged("allocator-tu"))
        return;
    const char *kMsg =
        "allocation in a hot-path TU (per-event allocations regress "
        "the slab discipline; use the arena/free-list, or move setup "
        "work out of the pump)";
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (ctx.isIdent(i, "new")) {
            if (i > 0 && ctx.isIdent(i - 1, "operator"))
                continue;
            ctx.emit(ctx.toks()[i], "hot-path-alloc", kMsg);
        } else if ((ctx.isIdent(i, "make_unique") ||
                    ctx.isIdent(i, "make_shared")) &&
                   (ctx.isPunct(i + 1, "<") || ctx.isPunct(i + 1, "("))) {
            ctx.emit(ctx.toks()[i], "hot-path-alloc", kMsg);
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

bool
diagnosticLess(const Diagnostic &a, const Diagnostic &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.col != b.col)
        return a.col < b.col;
    return a.rule < b.rule;
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
        {"shared-state",
         "mutable static-storage state without a synchronization "
         "discipline races once a thread pool or the partitioned event "
         "loop touches it",
         "make it std::atomic/constexpr/thread_local, or annotate "
         "`astra-lint: guarded-by(<mutex>)` / "
         "`thread-confined(<reason>)`"},
        {"unresolved-mutex",
         "a guarded-by(<mutex>) annotation naming no declared mutex is "
         "a typo or went stale when the lock was removed",
         "name an existing mutex variable, or delete the annotation"},
        {"thread-capture",
         "reference captures handed to ThreadPool::submit/forEach/"
         "parallelFor can dangle or race when the worker outlives the "
         "frame",
         "capture by value, or annotate the enclosing scope "
         "`astra-lint: thread-confined(<reason>)` when it joins before "
         "returning"},
        {"hot-path-alloc",
         "per-event allocations in hot-path TUs (event queue, "
         "garnet-lite pump) regress the slab discipline",
         "allocate from the arena/free-list, or move the setup out of "
         "the pump"},
        {"signal-unsafe",
         "a function tagged `astra-lint: signal-handler` may run "
         "between any two instructions; allocation, locking, IO or "
         "throw there, in its own body or anywhere down its call "
         "chain, deadlocks or corrupts state",
         "restrict handlers to lock-free atomic flag stores and do "
         "the real work at the next event-loop boundary"},
        {"stale-suppression",
         "a suppression that matches zero findings hides nothing and "
         "will silently mask the next real finding at that site",
         "delete the unused allow(...) comment or allowlist entry"},
        {"use-after-move",
         "a local read after std::move on some path holds an "
         "unspecified value; under a reordered config sweep that "
         "becomes a nondeterministic result",
         "reassign or .clear()/.reset() the variable before the read, "
         "or restructure so the move is the last use on every path"},
        {"lock-across-wait",
         "a scoped lock held across a condition-variable wait, pool "
         "submit or event-loop pump serializes the simulator or "
         "deadlocks when the waited work needs the same mutex",
         "narrow the lock scope with a block, or release via "
         "unique_lock::unlock() before waiting (cv.wait(lock, ...) "
         "with the lock as first argument is the sanctioned form)"},
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

std::set<std::string>
unorderedNames(const LexedFile &file)
{
    std::set<std::string> names;
    collectUnordered(file, names);
    return names;
}

void
runIndexRules(const LexedFile &file, const SymbolIndex &index,
              std::vector<Diagnostic> &out,
              std::vector<SuppressionUse> *uses)
{
    RuleContext ctx(file, out, uses);
    ruleSharedState(ctx, file, index);
    ruleUnresolvedMutex(ctx, file, index);
    ruleThreadCapture(ctx, file, index);
    ruleHotPathAlloc(ctx);
}

void
runTokenRules(const LexedFile &file,
              const std::set<std::string> &extra_tracked,
              std::vector<Diagnostic> &out,
              std::vector<SuppressionUse> *uses)
{
    RuleContext ctx(file, out, uses);
    ruleNoRand(ctx);
    ruleNoWallClock(ctx, file);
    ruleNoFloat(ctx);
    ruleNoNakedNew(ctx);
    ruleNoThrowAbort(ctx);
    ruleUnorderedIter(ctx, file, extra_tracked);
    rulePtrKeyOrder(ctx);
    rulePtrSort(ctx);

    for (const LexError &e : file.errors)
        ctx.emitAtLine(e.line, "parse-error", e.what);
}

} // namespace astra::lint

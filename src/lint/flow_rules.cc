#include "lint/flow_rules.hh"

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

#include "lint/cfg.hh"
#include "lint/dataflow.hh"

namespace astra::lint
{

namespace
{

const std::set<std::string> kLockTypes = {"lock_guard", "unique_lock",
                                          "scoped_lock", "shared_lock"};

/** Member calls that return a moved-from local to a known state. */
const std::set<std::string> kResetMethods = {"clear", "reset", "assign",
                                             "swap"};

/** Wait-like members: block the caller until other threads progress. */
const std::set<std::string> kWaitMembers = {"wait", "wait_for",
                                            "wait_until", "run",
                                            "runUntil", "runFor"};

/** Pool entry points: hand work to other threads, member or free. */
const std::set<std::string> kPoolSubmits = {"submit", "forEach",
                                            "parallelFor"};

/** Identifiers before a local's first occurrence that are not a
 *  declaring type name. */
const std::set<std::string> kNotDeclPrev = {
    "return", "delete", "throw",     "case",    "goto",
    "new",    "else",   "co_return", "co_yield"};

/** Keywords that read like `ident (` but are not calls. */
const std::set<std::string> kNotCalls = {
    "if",     "while",    "for",           "switch",  "return",
    "sizeof", "alignof",  "decltype",      "catch",   "noexcept",
    "throw",  "static_assert", "defined",  "typeid"};

bool
isIdentAt(const std::vector<Token> &t, std::size_t i, const char *text)
{
    return i < t.size() && t[i].kind == TokKind::kIdent &&
           t[i].text == text;
}

bool
isPunctAt(const std::vector<Token> &t, std::size_t i, const char *text)
{
    return i < t.size() && t[i].kind == TokKind::kPunct &&
           t[i].text == text;
}

bool
punctIn(const std::vector<Token> &t, std::size_t i,
        std::initializer_list<const char *> texts)
{
    if (i >= t.size() || t[i].kind != TokKind::kPunct)
        return false;
    for (const char *s : texts) {
        if (t[i].text == s)
            return true;
    }
    return false;
}

/** `move ( <name> )` with `move` not behind `.`/`->` at position i. */
bool
isMoveOf(const std::vector<Token> &t, std::size_t i,
         const std::string &name)
{
    if (!isIdentAt(t, i, "move"))
        return false;
    if (i > 0 && punctIn(t, i - 1, {".", "->"}))
        return false;
    return isPunctAt(t, i + 1, "(") && i + 2 < t.size() &&
           t[i + 2].kind == TokKind::kIdent && t[i + 2].text == name &&
           isPunctAt(t, i + 3, ")");
}

/** Token i looks like a declaration of the identifier at i: the
 *  previous token is a plausible type name or declarator punctuation. */
bool
declLike(const std::vector<Token> &t, std::size_t i)
{
    if (i == 0)
        return false;
    const Token &prev = t[i - 1];
    if (prev.kind == TokKind::kIdent)
        return kNotDeclPrev.count(prev.text) == 0;
    return prev.text == ">" || prev.text == "&" || prev.text == "*";
}

// ---------------------------------------------------------------- //
// use-after-move
// ---------------------------------------------------------------- //

struct MovedVar
{
    std::string name;
    int firstMoveLine = 0;
};

class MoveTransfer : public Transfer
{
  public:
    MoveTransfer(const std::vector<Token> &toks,
                 const std::vector<MovedVar> &vars)
        : _t(toks), _vars(vars)
    {
    }

    bool
    stmtGens(const CfgStmt &s, const std::string &name) const
    {
        for (std::size_t k = s.firstTok;
             k <= s.lastTok && k < _t.size(); ++k) {
            if (isMoveOf(_t, k, name))
                return true;
        }
        return false;
    }

    bool
    stmtKills(const CfgStmt &s, const std::string &name) const
    {
        for (std::size_t k = s.firstTok;
             k <= s.lastTok && k < _t.size(); ++k) {
            if (_t[k].kind != TokKind::kIdent || _t[k].text != name)
                continue;
            if (k > s.firstTok && punctIn(_t, k - 1, {".", "->", "::"}))
                continue; // member of some other object
            if (isPunctAt(_t, k + 1, "="))
                return true; // reassignment
            if (punctIn(_t, k + 1, {".", "->"}) && k + 2 < _t.size() &&
                _t[k + 2].kind == TokKind::kIdent &&
                kResetMethods.count(_t[k + 2].text) > 0 &&
                isPunctAt(_t, k + 3, "("))
                return true; // v.clear() / v.reset() / ...
            if (declLike(_t, k))
                return true; // (re)declaration in a fresh scope
        }
        return false;
    }

    void
    apply(const CfgStmt &s, FactSet &facts) const override
    {
        if (s.scopeExit)
            return;
        for (std::size_t vi = 0; vi < _vars.size(); ++vi) {
            if (stmtGens(s, _vars[vi].name))
                facts.set(vi);
            else if (stmtKills(s, _vars[vi].name))
                facts.reset(vi);
        }
    }

  private:
    const std::vector<Token> &_t;
    const std::vector<MovedVar> &_vars;
};

void
ruleUseAfterMove(const LexedFile &file, const FunctionExtent &fe,
                 const FunctionCfg &cfg, std::vector<Diagnostic> &out,
                 std::vector<SuppressionUse> *uses)
{
    const std::vector<Token> &t = file.tokens;

    // Track locals that are both declared and moved-from in this body
    // (members and parameters stay out: their lifetime is not ours to
    // reason about from one function).
    std::vector<MovedVar> vars;
    std::set<std::string> seen;
    for (std::size_t i = fe.bodyBegin + 1;
         i + 3 < t.size() && i < fe.bodyEnd; ++i) {
        if (!isIdentAt(t, i, "move") ||
            (i > 0 && punctIn(t, i - 1, {".", "->"})))
            continue;
        if (!isPunctAt(t, i + 1, "(") ||
            t[i + 2].kind != TokKind::kIdent ||
            !isPunctAt(t, i + 3, ")"))
            continue;
        const std::string &name = t[i + 2].text;
        if (seen.count(name) > 0)
            continue;
        bool declared = false;
        for (std::size_t j = fe.bodyBegin + 1; j < fe.bodyEnd; ++j) {
            if (t[j].kind == TokKind::kIdent && t[j].text == name &&
                declLike(t, j)) {
                declared = true;
                break;
            }
        }
        if (!declared)
            continue;
        seen.insert(name);
        vars.push_back(MovedVar{name, t[i].line});
    }
    if (vars.empty())
        return;

    MoveTransfer transfer(t, vars);
    // No back-edge propagation: a value moved late in iteration N is
    // normally reassigned before the read early in iteration N+1.
    std::vector<FactSet> entry =
        solveForward(cfg, vars.size(), transfer, false);

    std::vector<bool> reported(vars.size(), false);
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        FactSet state = entry[b];
        for (const CfgStmt &s : cfg.blocks[b].stmts) {
            if (!s.scopeExit) {
                for (std::size_t vi = 0; vi < vars.size(); ++vi) {
                    if (reported[vi] || !state.test(vi) ||
                        transfer.stmtGens(s, vars[vi].name))
                        continue;
                    for (std::size_t k = s.firstTok;
                         k <= s.lastTok && k < t.size(); ++k) {
                        if (t[k].kind != TokKind::kIdent ||
                            t[k].text != vars[vi].name)
                            continue;
                        if (k > 0 &&
                            punctIn(t, k - 1, {".", "->", "::"}))
                            continue;
                        if (isPunctAt(t, k + 1, "="))
                            continue; // reassignment anchor
                        if (punctIn(t, k + 1, {".", "->"}) &&
                            k + 2 < t.size() &&
                            kResetMethods.count(t[k + 2].text) > 0 &&
                            isPunctAt(t, k + 3, "("))
                            continue; // reset anchor
                        if (declLike(t, k))
                            continue; // declaration anchor
                        emitUnlessSuppressed(
                            file, t[k].line, t[k].col, "use-after-move",
                            "local `" + vars[vi].name +
                                "` was moved-from (line " +
                                std::to_string(vars[vi].firstMoveLine) +
                                ") on a path reaching this read; "
                                "reassign or .clear()/.reset() it "
                                "before reuse",
                            out, uses);
                        reported[vi] = true;
                        break;
                    }
                }
            }
            transfer.apply(s, state);
        }
    }
}

// ---------------------------------------------------------------- //
// lock-across-wait
// ---------------------------------------------------------------- //

struct LockDecl
{
    std::string name;
    std::size_t typeTok = 0; //!< index of the lock_guard/... token
    int line = 0;
};

class LockTransfer : public Transfer
{
  public:
    LockTransfer(const std::vector<Token> &toks,
                 const std::vector<LockDecl> &locks)
        : _t(toks), _locks(locks)
    {
    }

    void
    apply(const CfgStmt &s, FactSet &facts) const override
    {
        for (std::size_t li = 0; li < _locks.size(); ++li) {
            const LockDecl &d = _locks[li];
            bool in_span =
                s.firstTok <= d.typeTok && d.typeTok <= s.lastTok;
            if (s.scopeExit) {
                // The destructor runs where the declaring scope ends.
                if (in_span)
                    facts.reset(li);
                continue;
            }
            if (in_span) {
                facts.set(li);
                continue;
            }
            for (std::size_t k = s.firstTok;
                 k <= s.lastTok && k < _t.size(); ++k) {
                if (_t[k].kind == TokKind::kIdent &&
                    _t[k].text == d.name &&
                    punctIn(_t, k + 1, {".", "->"}) &&
                    (isIdentAt(_t, k + 2, "unlock") ||
                     isIdentAt(_t, k + 2, "release")) &&
                    isPunctAt(_t, k + 3, "(")) {
                    facts.reset(li);
                    break;
                }
            }
        }
    }

  private:
    const std::vector<Token> &_t;
    const std::vector<LockDecl> &_locks;
};

void
ruleLockAcrossWait(const LexedFile &file, const FunctionExtent &fe,
                   const FunctionCfg &cfg, std::vector<Diagnostic> &out,
                   std::vector<SuppressionUse> *uses)
{
    const std::vector<Token> &t = file.tokens;

    std::vector<LockDecl> locks;
    for (std::size_t i = fe.bodyBegin + 1; i < fe.bodyEnd; ++i) {
        if (t[i].kind != TokKind::kIdent ||
            kLockTypes.count(t[i].text) == 0)
            continue;
        if (i > 0 && punctIn(t, i - 1, {".", "->"}))
            continue;
        std::size_t j = i + 1;
        if (isPunctAt(t, j, "<")) { // skip the template argument list
            int depth = 1;
            ++j;
            while (j < fe.bodyEnd && depth > 0) {
                if (t[j].kind == TokKind::kPunct) {
                    if (t[j].text == "<")
                        ++depth;
                    else if (t[j].text == ">")
                        --depth;
                    else if (t[j].text == ">>")
                        depth -= 2;
                    else if (t[j].text == ";")
                        break; // lone less-than, not a template
                }
                ++j;
            }
            if (depth > 0)
                continue;
        }
        if (j >= fe.bodyEnd || t[j].kind != TokKind::kIdent)
            continue;
        if (!isPunctAt(t, j + 1, "(") && !isPunctAt(t, j + 1, "{"))
            continue;
        locks.push_back(LockDecl{t[j].text, i, t[j].line});
    }
    if (locks.empty())
        return;

    LockTransfer transfer(t, locks);
    // Back edges ARE followed: a lock acquired before a loop is still
    // held at a wait inside it, every iteration.
    std::vector<FactSet> entry =
        solveForward(cfg, locks.size(), transfer, true);

    std::set<std::pair<std::size_t, std::size_t>> fired; // (lock, site)
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        FactSet state = entry[b];
        for (const CfgStmt &s : cfg.blocks[b].stmts) {
            if (!s.scopeExit) {
                for (std::size_t k = s.firstTok;
                     k <= s.lastTok && k < t.size(); ++k) {
                    if (t[k].kind != TokKind::kIdent ||
                        !isPunctAt(t, k + 1, "("))
                        continue;
                    bool member =
                        k > 0 && punctIn(t, k - 1, {".", "->"});
                    bool site =
                        (member && kWaitMembers.count(t[k].text) > 0) ||
                        kPoolSubmits.count(t[k].text) > 0;
                    if (!site)
                        continue;
                    // cv.wait(lk, ...) hands the lock to the wait —
                    // the sanctioned pattern, exempt for that lock.
                    std::string first_arg;
                    if (k + 2 < t.size() &&
                        t[k + 2].kind == TokKind::kIdent &&
                        punctIn(t, k + 3, {")", ","}))
                        first_arg = t[k + 2].text;
                    for (std::size_t li = 0; li < locks.size(); ++li) {
                        if (!state.test(li) ||
                            locks[li].name == first_arg ||
                            !fired.insert({li, k}).second)
                            continue;
                        emitUnlessSuppressed(
                            file, t[k].line, t[k].col, "lock-across-wait",
                            "scoped lock `" + locks[li].name +
                                "` (line " +
                                std::to_string(locks[li].line) +
                                ") is held across this `" + t[k].text +
                                "`; narrow the lock scope or unlock "
                                "before blocking",
                            out, uses);
                    }
                }
            }
            transfer.apply(s, state);
        }
    }
}

// ---------------------------------------------------------------- //
// signal-unsafe
// ---------------------------------------------------------------- //

const std::set<std::string> kSignalUnsafeAlloc = {
    "new",  "delete",      "malloc",     "calloc",
    "free", "realloc",     "make_unique", "make_shared"};

const std::set<std::string> kSignalUnsafeLock = {
    "lock",        "unlock",      "try_lock",    "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock", "mutex",
    "condition_variable"};

const std::set<std::string> kSignalUnsafeIo = {
    "printf", "fprintf", "sprintf", "snprintf", "puts",  "putchar",
    "fopen",  "fwrite",  "fread",   "fclose",   "fflush", "cout",
    "cerr",   "clog",    "fatal",   "panic",    "inform", "warn"};

/**
 * Category of an identifier banned in async-signal context, or
 * nullptr for a safe token.
 */
const char *
signalUnsafeCategory(const std::string &ident)
{
    if (kSignalUnsafeAlloc.count(ident) > 0)
        return "allocates";
    if (kSignalUnsafeLock.count(ident) > 0)
        return "locks";
    if (kSignalUnsafeIo.count(ident) > 0)
        return "performs IO";
    if (ident == "throw")
        return "throws";
    return nullptr;
}

struct CallSite
{
    std::string callee;
    std::size_t tok = 0;
};

/** Call sites of one extent: `name (` where name is not preceded by
 *  `.`/`->`/ident/`new` (member calls and declarations excluded — the
 *  graph is name-based and must not fabricate edges). */
std::vector<CallSite>
collectCallSites(const LexedFile &file, const FunctionExtent &fe)
{
    const std::vector<Token> &t = file.tokens;
    std::vector<CallSite> sites;
    for (std::size_t k = fe.bodyBegin + 1;
         k < fe.bodyEnd && k < t.size(); ++k) {
        if (t[k].kind != TokKind::kIdent || !isPunctAt(t, k + 1, "("))
            continue;
        if (kNotCalls.count(t[k].text) > 0)
            continue;
        if (k > 0) {
            const Token &prev = t[k - 1];
            if (prev.kind == TokKind::kIdent &&
                (prev.text != "return" &&
                 kNotCalls.count(prev.text) == 0))
                continue; // declaration or `new T(...)`-like
            if (prev.text == "new" || punctIn(t, k - 1, {".", "->"}))
                continue;
        }
        sites.push_back(CallSite{t[k].text, k});
    }
    return sites;
}

} // namespace

void
runFlowRulesFile(const LexedFile &file, const SymbolIndex &index,
                 std::vector<Diagnostic> &out,
                 std::vector<SuppressionUse> *uses)
{
    for (const FunctionExtent &fe : index.functions) {
        if (!fe.hasBody || fe.file != file.path ||
            fe.bodyEnd >= file.tokens.size() ||
            fe.bodyEnd <= fe.bodyBegin)
            continue;
        FunctionCfg cfg =
            buildFunctionCfg(file, fe.bodyBegin, fe.bodyEnd);
        if (!cfg.wellFormed)
            continue;
        ruleUseAfterMove(file, fe, cfg, out, uses);
        ruleLockAcrossWait(file, fe, cfg, out, uses);
    }
}

/**
 * A function whose head carries the `signal-handler` mark runs
 * between any two instructions of the interrupted thread: the only
 * portable operations are lock-free atomic stores (the POSIX
 * async-signal-safe discipline). malloc holds the heap lock, a mutex
 * the handler's own thread may already hold deadlocks instantly, and
 * stdio buffers are in an unknown state — so allocation, locking, IO
 * and throw are findings in the handler and in everything it calls.
 *
 * A breadth-first search over the name-based call graph starts at the
 * handler (depth 0), where every unsafe token is reported. Below it,
 * the first unsafe callee on each chain is reported once, at the
 * handler's call site that starts the chain, with the chain spelled
 * out in the message.
 */
void
runFlowRulesGlobal(const std::vector<LexedFile> &files,
                   const SymbolIndex &index, std::vector<Diagnostic> &out,
                   std::vector<SuppressionUse> *uses)
{
    std::map<std::string, const LexedFile *> by_path;
    for (const LexedFile &f : files)
        by_path[f.path] = &f;

    // Bodied extents, their call sites, and the name -> extents map.
    std::vector<std::size_t> extents;
    std::map<std::string, std::vector<std::size_t>> by_name;
    std::map<std::size_t, std::vector<CallSite>> calls;
    for (std::size_t e = 0; e < index.functions.size(); ++e) {
        const FunctionExtent &fe = index.functions[e];
        if (!fe.hasBody)
            continue;
        auto fit = by_path.find(fe.file);
        if (fit == by_path.end())
            continue;
        extents.push_back(e);
        calls[e] = collectCallSites(*fit->second, fe);
        if (!fe.name.empty())
            by_name[fe.name].push_back(e);
    }

    // Token indices of the async-signal-unsafe identifiers in an
    // extent's body, in source order.
    auto unsafe_tokens = [&](std::size_t e) {
        const FunctionExtent &fe = index.functions[e];
        const std::vector<Token> &t = by_path.at(fe.file)->tokens;
        std::vector<std::size_t> found;
        for (std::size_t k = fe.bodyBegin + 1;
             k < fe.bodyEnd && k < t.size(); ++k) {
            if (t[k].kind == TokKind::kIdent &&
                signalUnsafeCategory(t[k].text) != nullptr)
                found.push_back(k);
        }
        return found;
    };

    for (std::size_t h : extents) {
        const FunctionExtent &handler = index.functions[h];
        if (!handler.signalHandler)
            continue;
        const LexedFile &hfile = *by_path.at(handler.file);

        // Depth 0: the handler's own body.
        for (std::size_t k : unsafe_tokens(h)) {
            const Token &tok = hfile.tokens[k];
            emitUnlessSuppressed(
                hfile, tok.line, tok.col, "signal-unsafe",
                "'" + tok.text + "' " + signalUnsafeCategory(tok.text) +
                    " inside a signal handler; only async-signal-safe "
                    "operations (lock-free atomic stores) may run there "
                    "— set a flag and act at the next event-loop boundary",
                out, uses);
        }

        std::set<std::size_t> visited = {h};
        // extent -> (caller extent, call-site token in the caller)
        std::map<std::size_t, std::pair<std::size_t, std::size_t>> via;
        std::deque<std::size_t> queue = {h};
        while (!queue.empty()) {
            std::size_t u = queue.front();
            queue.pop_front();
            for (const CallSite &site : calls[u]) {
                auto tgt = by_name.find(site.callee);
                if (tgt == by_name.end())
                    continue;
                for (std::size_t v : tgt->second) {
                    if (!visited.insert(v).second)
                        continue;
                    via[v] = {u, site.tok};
                    std::vector<std::size_t> bad = unsafe_tokens(v);
                    if (bad.empty()) {
                        queue.push_back(v);
                        continue;
                    }
                    // Reconstruct handler -> ... -> v and find the
                    // first hop's call token inside the handler.
                    std::vector<std::string> chain;
                    std::size_t hop_tok = site.tok;
                    for (std::size_t cur = v; cur != h;) {
                        chain.insert(chain.begin(),
                                     index.functions[cur].name);
                        auto [caller, tok] = via.at(cur);
                        if (caller == h)
                            hop_tok = tok;
                        cur = caller;
                    }
                    std::string path_str = handler.name.empty()
                                               ? "handler"
                                               : handler.name;
                    for (const std::string &n : chain)
                        path_str += " -> " + n;
                    const std::string &what =
                        by_path.at(index.functions[v].file)
                            ->tokens[bad.front()]
                            .text;
                    const Token &hop = hfile.tokens[hop_tok];
                    emitUnlessSuppressed(
                        hfile, hop.line, hop.col, "signal-unsafe",
                        "signal handler reaches `" + what + "` (" +
                            signalUnsafeCategory(what) + ") via " +
                            path_str +
                            "; handlers may only set a lock-free atomic "
                            "flag",
                        out, uses);
                }
            }
        }
    }
}

} // namespace astra::lint

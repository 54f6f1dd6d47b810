#include "lint/symbols.hh"

namespace astra::lint
{

namespace
{

const std::set<std::string> kMutexTypes = {
    "mutex",          "shared_mutex",           "recursive_mutex",
    "timed_mutex",    "recursive_timed_mutex",  "shared_timed_mutex"};

const std::set<std::string> kOtherSync = {
    "condition_variable", "condition_variable_any", "once_flag",
    "atomic_flag",        "counting_semaphore",     "binary_semaphore",
    "barrier",            "latch"};

const std::set<std::string> kControlKeywords = {
    "if",   "for",     "while",  "switch",   "do",    "else",
    "try",  "catch",   "case",   "default",  "return", "goto",
    "break", "continue"};

/**
 * Statement heads that are never variable declarations (class/struct/
 * union/enum here are the `;`-terminated forward declarations — a
 * defining body opens a scope before maybeRecordVar ever runs).
 */
const std::set<std::string> kSkipStatement = {
    "using",     "typedef", "friend", "template", "operator",
    "static_assert", "asm", "delete", "throw",    "new",
    "class",     "struct",  "union",  "enum",     "namespace"};

/** Idents that cannot be a declarator name (specifiers and types). */
const std::set<std::string> kNotAName = {
    "static",   "const",    "constexpr", "constinit", "thread_local",
    "inline",   "extern",   "mutable",   "volatile",  "register",
    "unsigned", "signed",   "int",       "long",      "short",
    "char",     "bool",     "double",    "auto",      "void",
    "std",      "struct",   "class",     "enum",      "union",
    "noexcept", "override", "final",     "public",    "private",
    "protected"};

/** Marks recorded for @p line, or nullptr. */
const LineMarks *
marksAt(const LexedFile &f, int line)
{
    auto it = f.marks.find(line);
    return it == f.marks.end() ? nullptr : &it->second;
}

/**
 * The recognizer for one file: a scope stack driven by braces, with a
 * statement scanner that understands paren/bracket nesting and a
 * template-angle heuristic (a `<` right after an identifier opens an
 * angle level). Runs over a directive-filtered copy of the token
 * stream so `#define` bodies (which have no `;` terminator) cannot
 * desynchronize the statement boundaries.
 */
class FileIndexer
{
  public:
    FileIndexer(const LexedFile &file, SymbolIndex &index)
        : _file(file), _index(index)
    {
        std::set<int> directive_lines;
        for (const auto &[first, last] : file.directiveSpans) {
            for (int l = first; l <= last; ++l)
                directive_lines.insert(l);
        }
        for (std::size_t n = 0; n < file.tokens.size(); ++n) {
            const Token &t = file.tokens[n];
            if (directive_lines.count(t.line) == 0) {
                _toks.push_back(t);
                _orig.push_back(n);
            }
        }
    }

    void
    run()
    {
        _scopes.push_back(Scope{ScopeKind::kNamespace, -1});
        std::size_t i = 0;
        while (i < _toks.size())
            i = step(i);
        // Unbalanced braces (or a recognizer miss) leave extents open;
        // close them at the last seen line so lookups stay sane.
        int last_line =
            _toks.empty() ? 1 : _toks.back().line;
        std::size_t last_orig = _orig.empty() ? 0 : _orig.back();
        while (_scopes.size() > 1)
            popScope(last_line, last_orig);
    }

  private:
    enum class ScopeKind
    {
        kNamespace,
        kClass,
        kEnum,
        kFunction,
        kBlock,
    };

    struct Scope
    {
        ScopeKind kind;
        int extent; //!< index into _index.functions, or -1
    };

    bool isPunct(std::size_t i, const char *p) const
    {
        return i < _toks.size() && _toks[i].kind == TokKind::kPunct &&
               _toks[i].text == p;
    }

    void
    popScope(int close_line, std::size_t close_orig)
    {
        Scope s = _scopes.back();
        _scopes.pop_back();
        if (s.extent >= 0) {
            FunctionExtent &fe =
                _index.functions[static_cast<std::size_t>(s.extent)];
            fe.lastLine = close_line;
            fe.bodyEnd = close_orig;
            fe.hasBody = close_orig > fe.bodyBegin;
        }
    }

    /**
     * Recover the declarator name (ident right before the first
     * statement-level `(`) from the head tokens [@p i, @p end).
     */
    void
    nameFunction(FunctionExtent &fe, std::size_t i, std::size_t end)
    {
        int paren = 0, angle = 0;
        std::string prev_ident;
        for (std::size_t k = i; k < end; ++k) {
            const Token &t = _toks[k];
            if (t.kind == TokKind::kPunct) {
                const std::string &p = t.text;
                if (p == "(") {
                    if (paren == 0 && angle == 0) {
                        // `operator()` and friends get no name: a
                        // call graph keyed by "operator" would only
                        // fabricate edges.
                        if (prev_ident != "operator")
                            fe.name = prev_ident;
                        return;
                    }
                    ++paren;
                } else if (p == "[") {
                    ++paren;
                } else if ((p == ")" || p == "]") && paren > 0) {
                    --paren;
                } else if (p == "<" && k > i &&
                           _toks[k - 1].kind == TokKind::kIdent &&
                           !isPunct(k + 1, "=") && !isPunct(k + 1, "<")) {
                    ++angle;
                } else if (p == ">" && angle > 0) {
                    --angle;
                }
                continue;
            }
            if (t.kind != TokKind::kIdent || paren > 0 || angle > 0)
                continue;
            prev_ident = t.text;
        }
    }

    void
    pushFunction(int head_line, std::size_t head_i, std::size_t body_open)
    {
        FunctionExtent fe;
        fe.file = _file.path;
        fe.firstLine = head_line;
        fe.lastLine = head_line;
        for (int l : {head_line - 1, head_line}) {
            if (const LineMarks *m = marksAt(_file, l)) {
                fe.threadConfined = fe.threadConfined || m->threadConfined;
                fe.signalHandler = fe.signalHandler || m->signalHandler;
            }
        }
        nameFunction(fe, head_i, body_open);
        fe.bodyBegin = _orig[body_open];
        _index.functions.push_back(fe);
        _scopes.push_back(Scope{ScopeKind::kFunction,
                                static_cast<int>(_index.functions.size()) -
                                    1});
    }

    /** Consume one statement (or scope boundary) starting at @p i. */
    std::size_t
    step(std::size_t i)
    {
        if (isPunct(i, ";"))
            return i + 1;
        if (isPunct(i, "}")) {
            if (_scopes.size() > 1)
                popScope(_toks[i].line, _orig[i]);
            return i + 1;
        }
        // Access labels are not statements: `public: int _x;` must
        // still record the member after the label.
        if (_toks[i].kind == TokKind::kIdent &&
            (_toks[i].text == "public" || _toks[i].text == "private" ||
             _toks[i].text == "protected") &&
            isPunct(i + 1, ":"))
            return i + 2;

        // ---- scan the statement head ------------------------------
        int paren = 0; // () [] and nested {} while paren > 0
        int angle = 0;
        bool saw_top_paren = false;   // a `(` at statement level
        bool saw_top_equals = false;  // an `=` at statement level
        bool paren_before_equals = false;
        std::size_t j = i;
        std::size_t end = _toks.size(); // index of the terminator
        char term = '\0';
        for (; j < _toks.size(); ++j) {
            const Token &t = _toks[j];
            if (t.kind != TokKind::kPunct) {
                continue;
            }
            const std::string &p = t.text;
            if (p == "(" || p == "[") {
                if (paren == 0 && angle == 0 && p == "(") {
                    saw_top_paren = true;
                    if (!saw_top_equals)
                        paren_before_equals = true;
                }
                ++paren;
            } else if (p == ")" || p == "]") {
                if (paren > 0)
                    --paren;
            } else if (p == "<") {
                // The lexer emits `<=` and `<<` as two tokens; only a
                // lone `<` right after an identifier opens a template
                // argument list.
                if (j > i && _toks[j - 1].kind == TokKind::kIdent &&
                    !isPunct(j + 1, "=") && !isPunct(j + 1, "<"))
                    ++angle;
            } else if (p == ">") {
                if (angle > 0)
                    --angle;
            } else if (p == "=") {
                if (paren == 0 && angle == 0)
                    saw_top_equals = true;
            } else if (p == ";") {
                // A template argument list never contains a top-level
                // `;`, so terminate even with angle > 0 (the angle
                // count was a mis-read `<` comparison).
                if (paren == 0) {
                    term = ';';
                    end = j;
                    break;
                }
            } else if (p == "{") {
                // Same recovery as `;`: a body/initializer brace at
                // statement level terminates even with stale angle.
                if (paren == 0) {
                    term = '{';
                    end = j;
                    break;
                }
                ++paren; // lambda/init body nested inside parens
            } else if (p == "}") {
                if (paren > 0) {
                    --paren;
                } else {
                    term = '}';
                    end = j;
                    break;
                }
            }
        }
        if (end >= _toks.size())
            return _toks.size(); // ran off the file
        if (term == '}')
            return end; // let step() pop the scope

        // First significant identifier, skipping a `template <...>`
        // introducer.
        std::size_t head = i;
        if (head < end && _toks[head].kind == TokKind::kIdent &&
            _toks[head].text == "template" && isPunct(head + 1, "<")) {
            int d = 1;
            std::size_t k = head + 2;
            for (; k < end && d > 0; ++k) {
                if (isPunct(k, "<"))
                    ++d;
                else if (isPunct(k, ">"))
                    --d;
            }
            head = k;
        }
        std::string first_ident;
        for (std::size_t k = head; k < end; ++k) {
            if (_toks[k].kind == TokKind::kIdent) {
                first_ident = _toks[k].text;
                break;
            }
        }

        if (term == ';') {
            maybeRecordVar(i, end, saw_top_equals, saw_top_paren,
                           paren_before_equals, first_ident);
            return end + 1;
        }

        // ---- term == '{': open a scope or a brace initializer -----
        int head_line = _toks[i].line;
        // `extern "C" {` opens a linkage block (no parens); with a
        // statement-level paren it is a C-linkage function definition
        // — `extern "C" void onSignal(int) {` — and must fall through
        // to the function branch so its extent (and any signal-handler
        // mark on the head) is indexed.
        if (first_ident == "namespace" ||
            (first_ident == "extern" && !saw_top_paren)) {
            _scopes.push_back(Scope{ScopeKind::kNamespace, -1});
            return end + 1;
        }
        if (first_ident == "enum") {
            _scopes.push_back(Scope{ScopeKind::kEnum, -1});
            return end + 1;
        }
        if ((first_ident == "class" || first_ident == "struct" ||
             first_ident == "union") &&
            !saw_top_paren) {
            _scopes.push_back(Scope{ScopeKind::kClass, -1});
            return end + 1;
        }
        if (kControlKeywords.count(first_ident) > 0 ||
            first_ident.empty()) {
            _scopes.push_back(Scope{ScopeKind::kBlock, -1});
            return end + 1;
        }
        if (saw_top_paren && !saw_top_equals) {
            // `name(args) [const noexcept : init-list] {` — a function
            // (or TEST macro) definition.
            pushFunction(head_line, i, end);
            return end + 1;
        }
        if (saw_top_equals || !saw_top_paren) {
            // Brace initializer: `std::atomic<int> g{0};` or
            // `int tab[] = {1, 2};` — record the variable, then skip
            // the balanced braces to the trailing `;`.
            maybeRecordVar(i, end, saw_top_equals, saw_top_paren,
                           paren_before_equals, first_ident);
            int depth = 1;
            std::size_t k = end + 1;
            for (; k < _toks.size() && depth > 0; ++k) {
                if (isPunct(k, "{"))
                    ++depth;
                else if (isPunct(k, "}"))
                    --depth;
            }
            if (isPunct(k, ";"))
                ++k;
            return k;
        }
        _scopes.push_back(Scope{ScopeKind::kBlock, -1});
        return end + 1;
    }

    /**
     * Record the variable a statement spanning [@p i, @p end) declares,
     * when it declares one at an indexed scope. Heuristic skips are
     * silent: a missed declaration weakens a rule but cannot create a
     * false finding on valid code.
     */
    void
    maybeRecordVar(std::size_t i, std::size_t end, bool saw_equals,
                   bool saw_paren, bool paren_before_equals,
                   const std::string &first_ident)
    {
        ScopeKind at = _scopes.back().kind;
        if (at == ScopeKind::kEnum)
            return;
        if (first_ident.empty() ||
            kSkipStatement.count(first_ident) > 0 ||
            kControlKeywords.count(first_ident) > 0)
            return;
        // A statement-level paren with no `=` before it is a function
        // prototype / call / macro invocation, not a variable.
        if (saw_paren && paren_before_equals)
            return;
        (void)saw_equals;

        bool is_static = false, is_extern = false;
        VarDecl v;
        v.file = _file.path;
        v.line = _toks[i].line;

        int paren = 0, angle = 0;
        std::string name;
        bool name_final = false;
        bool saw_operator = false;
        for (std::size_t k = i; k < end; ++k) {
            const Token &t = _toks[k];
            if (t.kind == TokKind::kPunct) {
                const std::string &p = t.text;
                if (p == "(" || p == "[" || p == "{")
                    ++paren;
                else if ((p == ")" || p == "]" || p == "}") && paren > 0)
                    --paren;
                else if (p == "<" && k > i &&
                         _toks[k - 1].kind == TokKind::kIdent &&
                         !isPunct(k + 1, "=") && !isPunct(k + 1, "<"))
                    ++angle;
                else if (p == ">" && angle > 0)
                    --angle;
                else if ((p == "=" || p == ",") && paren == 0 &&
                         angle == 0)
                    name_final = true; // first declarator only
                continue;
            }
            if (t.kind != TokKind::kIdent || paren > 0 || angle > 0)
                continue;
            const std::string &id = t.text;
            if (id == "static")
                is_static = true;
            else if (id == "extern")
                is_extern = true;
            else if (id == "const" || id == "constexpr" ||
                     id == "constinit")
                v.isConst = true;
            else if (id == "thread_local")
                v.isThreadLocal = true;
            else if (id == "atomic" || id.rfind("atomic_", 0) == 0)
                v.isAtomic = true;
            else if (id == "operator")
                saw_operator = true;
            if (kMutexTypes.count(id) > 0 || kOtherSync.count(id) > 0)
                v.isSync = true;
            if (!name_final && kNotAName.count(id) == 0)
                name = id;
        }
        if (saw_operator || name.empty())
            return;
        if (is_extern && !saw_equals)
            return; // pure declaration; the defining TU is indexed
        v.name = name;

        switch (at) {
        case ScopeKind::kNamespace:
            v.scope = VarScope::kNamespace;
            break;
        case ScopeKind::kClass:
            v.scope = is_static ? VarScope::kClassStatic
                                : VarScope::kClassMember;
            break;
        case ScopeKind::kFunction:
        case ScopeKind::kBlock:
            if (!is_static)
                return; // automatic storage never shared
            v.scope = VarScope::kLocalStatic;
            break;
        case ScopeKind::kEnum:
            return;
        }

        int term_line = end < _toks.size() ? _toks[end].line : v.line;
        for (int l : {v.line - 1, v.line, term_line}) {
            if (const LineMarks *m = marksAt(_file, l)) {
                if (v.guardedBy.empty() && !m->guardedBy.empty())
                    v.guardedBy = m->guardedBy;
                v.threadConfined = v.threadConfined || m->threadConfined;
            }
        }

        bool is_mutex = false;
        for (std::size_t k = i; k < end; ++k) {
            if (_toks[k].kind == TokKind::kIdent &&
                kMutexTypes.count(_toks[k].text) > 0) {
                is_mutex = true;
                break;
            }
        }
        if (is_mutex)
            _index.mutexNames.insert(v.name);
        _index.vars.push_back(v);
    }

    const LexedFile &_file;
    SymbolIndex &_index;
    std::vector<Token> _toks;
    std::vector<std::size_t> _orig; //!< _toks[k] is file.tokens[_orig[k]]
    std::vector<Scope> _scopes;
};

} // namespace

bool
SymbolIndex::threadConfinedAt(const std::string &file, int line) const
{
    for (const FunctionExtent &fe : functions) {
        if (fe.threadConfined && fe.file == file &&
            fe.firstLine <= line && line <= fe.lastLine)
            return true;
    }
    return false;
}

SymbolIndex
buildSymbolIndex(const std::vector<LexedFile> &files)
{
    SymbolIndex index;
    for (const LexedFile &f : files)
        FileIndexer(f, index).run();
    return index;
}

} // namespace astra::lint

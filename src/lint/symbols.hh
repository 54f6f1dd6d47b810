/**
 * @file
 * Cross-TU symbol index of astra-lint (docs/static-analysis.md).
 *
 * A single-pass recursive-descent recognizer over the lexer's token
 * stream — not a C++ parser — that recovers just enough declaration
 * structure for the concurrency rules:
 *
 *   - namespace-scope and static-storage variables with the traits
 *     the shared-state rule decides on (const/constexpr, std::atomic,
 *     thread_local, synchronization primitive),
 *   - class data members (so `guarded-by(_mutex)` annotations on
 *     members can name a mutex declared in the same class),
 *   - every declared mutex name, unioned across all analyzed TUs
 *     (the resolution domain of `guarded-by(<mutex>)`),
 *   - function/lambda extents with their `thread-confined` marks, so
 *     the thread-capture rule can tell whether a `[&]` lambda lives
 *     inside a scope that provably joins before returning.
 *
 * The recognizer tracks brace scopes (namespace / class / function /
 * block), scans statements to the `;` or `{` at paren depth zero with
 * template-angle tracking, and skips tokens inside preprocessing
 * directive spans (lexer.hh directiveSpans). It is deliberately
 * heuristic: unrecognized statements are ignored, never guessed at —
 * a miss weakens a rule, it cannot fabricate a finding on valid code.
 */

#ifndef ASTRA_LINT_SYMBOLS_HH
#define ASTRA_LINT_SYMBOLS_HH

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace astra::lint
{

/** Where a variable declaration sits. */
enum class VarScope
{
    kNamespace,   //!< namespace scope (incl. anonymous namespaces)
    kClassStatic, //!< static data member
    kClassMember, //!< non-static data member
    kLocalStatic, //!< function-local static
};

/** One recognized variable declaration. */
struct VarDecl
{
    std::string file; //!< repo-relative path of the declaring TU
    int line = 0;
    std::string name;
    VarScope scope = VarScope::kNamespace;

    bool isConst = false;       //!< const / constexpr / constinit
    bool isAtomic = false;      //!< std::atomic<T> / atomic_*
    bool isThreadLocal = false; //!< thread_local storage
    bool isSync = false;        //!< mutex/condition_variable/once_flag

    /** guarded-by(<mutex>) annotation bound to the declaration. */
    std::string guardedBy;
    /** thread-confined(<reason>) annotation bound to the declaration. */
    bool threadConfined = false;
};

/** One function (or lambda) body extent. */
struct FunctionExtent
{
    std::string file;
    int firstLine = 0; //!< line of the statement head
    int lastLine = 0;  //!< line of the closing brace
    /** Head carries a thread-confined(<reason>) annotation. */
    bool threadConfined = false;
    /** Head carries a signal-handler annotation (signal-unsafe rule). */
    bool signalHandler = false;

    /**
     * Declarator identifier — the ident right before the head's first
     * statement-level `(` (`outcome` for `RunOutcome C::outcome()`).
     * Empty when the recognizer could not name the function. Feeds
     * the name-based call graph of the flow rules (flow_rules.hh).
     */
    std::string name;

    /**
     * Body delimiters as indices into the owning LexedFile::tokens:
     * bodyBegin is the opening `{`, bodyEnd its matching `}`. Valid
     * only when hasBody — the CFG builder (cfg.hh) parses this range.
     */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;
    bool hasBody = false;
};

/** The cross-TU index the concurrency rules run against. */
struct SymbolIndex
{
    std::vector<VarDecl> vars;
    std::vector<FunctionExtent> functions;

    /**
     * Every mutex-typed variable name seen in any analyzed TU
     * (std::mutex, shared_mutex, recursive_mutex, ... — members and
     * globals alike). `guarded-by(<name>)` resolves against this set.
     */
    std::set<std::string> mutexNames;

    /**
     * True when (file, line) sits inside a function extent whose head
     * is annotated thread-confined. Innermost-wins is irrelevant: any
     * enclosing confined extent exempts.
     */
    bool threadConfinedAt(const std::string &file, int line) const;
};

/** Index the declarations of every file in @p files. */
SymbolIndex buildSymbolIndex(const std::vector<LexedFile> &files);

} // namespace astra::lint

#endif // ASTRA_LINT_SYMBOLS_HH

/**
 * @file
 * Token-aware C++ lexer of astra-lint (docs/static-analysis.md).
 *
 * The grep gate this tool replaces matched raw bytes, so the word
 * "float" in a comment or the string "rand()" in a log message could
 * fail CI. This lexer produces real preprocessing tokens — comments,
 * string literals (including raw strings) and character literals are
 * consumed and never reach a rule — plus the side channels the analyzer
 * needs:
 *
 *   - per-line marks parsed out of comments (`// NOLINT`, rule-id
 *     allow-lists behind the `astra-lint:` comment tag, and the
 *     signal-handler mark),
 *   - file-level tags (`// astra-lint: allocator-tu`) that describe
 *     the whole translation unit rather than one line, and
 *   - the file's `#include` directives with line numbers, feeding the
 *     layering check (include_graph.hh).
 *
 * Phase 2 of translation (backslash line-splices) is performed: a
 * `\` immediately followed by a newline is transparent everywhere
 * except inside raw string literals, exactly as the standard orders
 * the phases — so `flo\<newline>at` lexes as the single token `float`
 * and a `//` comment ending in `\` swallows the next physical line.
 * Trigraphs are not handled (removed from the language in C++17), and
 * preprocessing directives other than #include are tokenized like
 * ordinary code so rules still see `#define BAD float`.
 */

#ifndef ASTRA_LINT_LEXER_HH
#define ASTRA_LINT_LEXER_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace astra::lint
{

/** Kind of a lexed token. */
enum class TokKind
{
    kIdent,  //!< identifier or keyword
    kNumber, //!< pp-number (1'000, 0x1f, 1e-3, 2.5f)
    kPunct,  //!< punctuation; `::` and `->` are single tokens
};

/** One preprocessing token with its source position (1-based). */
struct Token
{
    TokKind kind;
    std::string text;
    int line = 0;
    int col = 0;
};

/**
 * Marks found in the comments of one source line (the annotation
 * grammar, docs/static-analysis.md).
 */
struct LineMarks
{
    bool nolint = false;            //!< line carries a NOLINT comment
    std::set<std::string> allowed;  //!< rule ids from an allow-list mark

    /**
     * Line carries a signal-handler annotation: the function that
     * follows runs in async-signal context, so the signal-unsafe rule
     * restricts its body to std::atomic member operations.
     */
    bool signalHandler = false;
};

/** One #include directive. */
struct IncludeDirective
{
    std::string target; //!< text between the delimiters
    bool angled = false; //!< <...> (system) vs "..." (project)
    int line = 0;
};

/** A malformed construct the lexer could not consume cleanly. */
struct LexError
{
    int line = 0;
    std::string what;
};

/** The lexer's complete output for one file. */
struct LexedFile
{
    std::string path;                //!< as given to lexFile()
    std::vector<Token> tokens;       //!< comment/string-free token stream
    std::map<int, LineMarks> marks;  //!< line -> suppression marks
    std::vector<IncludeDirective> includes;
    std::vector<LexError> errors;    //!< unterminated literals etc.

    /**
     * File-level tags: `// astra-lint: <tag>` comments whose word after
     * the colon is not `allow(`. Unlike line marks, a tag describes the
     * whole translation unit — e.g. `allocator-tu` declares that this
     * file implements an arena/slab and may use placement new.
     */
    std::set<std::string> fileTags;
};

/** Lex @p source (contents of @p path) into tokens + side channels. */
LexedFile lexSource(const std::string &path, const std::string &source);

/**
 * Read @p path from disk and lex it. A file that cannot be read
 * produces a LexedFile whose `errors` is non-empty.
 */
LexedFile lexFile(const std::string &path);

} // namespace astra::lint

#endif // ASTRA_LINT_LEXER_HH

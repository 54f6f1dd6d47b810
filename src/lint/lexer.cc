#include "lint/lexer.hh"

#include <cctype>
#include <fstream>
#include <sstream>

namespace astra::lint
{

namespace
{

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** True if @p id is a valid encoding prefix of a string literal. */
bool
isStringPrefix(const std::string &id)
{
    return id == "R" || id == "L" || id == "u" || id == "U" ||
           id == "u8" || id == "LR" || id == "uR" || id == "UR" ||
           id == "u8R";
}

/**
 * Parse markers out of one comment line: a NOLINT word, plus the
 * constructs behind the `astra-lint:` comment tag — rule-id
 * allow-lists and the signal-handler mark (into @p marks), and bare
 * tag words, which are file-scoped declarations (into @p file_tags):
 * an allocator-tu tag marks a TU that legitimately uses placement
 * new, a hot-path tag opts it into the allocation rule. (This doc
 * spells the grammar indirectly on purpose: writing a literal mark
 * here would annotate this very line.)
 */
void
parseMarkers(const std::string &comment, LineMarks &marks,
             std::set<std::string> &file_tags)
{
    if (comment.find("NOLINT") != std::string::npos)
        marks.nolint = true;

    auto isTagChar = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '-';
    };

    static const std::string kTag = "astra-lint:";
    std::size_t pos = 0;
    while ((pos = comment.find(kTag, pos)) != std::string::npos) {
        std::size_t p = pos + kTag.size();
        while (p < comment.size() && comment[p] == ' ')
            ++p;
        static const std::string kSignal = "signal-handler";
        if (comment.compare(p, kSignal.size(), kSignal) == 0 &&
            (p + kSignal.size() >= comment.size() ||
             !isTagChar(comment[p + kSignal.size()]))) {
            // A line mark, not a file tag: it binds to the function
            // that follows this line.
            marks.signalHandler = true;
            pos = p + kSignal.size();
            continue;
        }
        static const std::string kAllow = "allow(";
        if (comment.compare(p, kAllow.size(), kAllow) != 0) {
            // Not an allow-list: a bare lowercase word here is a
            // file-level tag ("astra-lint: allocator-tu"). Anything
            // else is prose mentioning the tool.
            std::size_t e = p;
            while (e < comment.size() && isTagChar(comment[e]))
                ++e;
            if (e > p)
                file_tags.insert(comment.substr(p, e - p));
            pos = e > p ? e : p;
            continue;
        }
        p += kAllow.size();
        std::size_t close = comment.find(')', p);
        if (close == std::string::npos)
            break;
        std::string list = comment.substr(p, close - p);
        std::string id;
        std::istringstream ss(list);
        while (std::getline(ss, id, ',')) {
            std::size_t b = id.find_first_not_of(" \t");
            std::size_t e = id.find_last_not_of(" \t");
            if (b != std::string::npos)
                marks.allowed.insert(id.substr(b, e - b + 1));
        }
        pos = close;
    }
}

/**
 * Character-cursor over the source with 1-based line/col tracking.
 *
 * Performs translation phase 2: a backslash immediately followed by a
 * newline (or CRLF) is a line splice and is skipped transparently by
 * peek()/advance(), so callers never observe it — an identifier,
 * string literal, comment or #include target split across a splice
 * reads as one contiguous construct. Raw string literals revert the
 * splice (the standard's exception); setSplicing(false) turns the
 * transparency off while their bodies are consumed.
 */
class Cursor
{
  public:
    explicit Cursor(const std::string &src) : _src(src) {}

    bool atEnd() const { return spliced(_i) >= _src.size(); }

    char
    peek(std::size_t ahead = 0) const
    {
        std::size_t i = spliced(_i);
        while (ahead > 0 && i < _src.size()) {
            i = spliced(i + 1);
            --ahead;
        }
        return i < _src.size() ? _src[i] : '\0';
    }

    int line() const { return _line; }
    int col() const { return _col; }

    /** Toggle splice transparency (off inside raw string literals). */
    void setSplicing(bool on) { _splice = on; }

    char
    advance()
    {
        skipSplices();
        char c = _src[_i++];
        if (c == '\n') {
            ++_line;
            _col = 1;
        } else {
            ++_col;
        }
        return c;
    }

  private:
    /** Length of the splice starting at @p i, or 0. */
    std::size_t
    spliceLen(std::size_t i) const
    {
        if (!_splice || i + 1 >= _src.size() || _src[i] != '\\')
            return 0;
        if (_src[i + 1] == '\n')
            return 2;
        if (_src[i + 1] == '\r' && i + 2 < _src.size() &&
            _src[i + 2] == '\n')
            return 3;
        return 0;
    }

    /** First non-splice position at or after @p i. */
    std::size_t
    spliced(std::size_t i) const
    {
        for (std::size_t n; (n = spliceLen(i)) != 0;)
            i += n;
        return i;
    }

    /** Consume splices at the cursor, keeping line/col honest. */
    void
    skipSplices()
    {
        for (std::size_t n; (n = spliceLen(_i)) != 0;) {
            _i += n;
            ++_line;
            _col = 1;
        }
    }

    const std::string &_src;
    std::size_t _i = 0;
    int _line = 1;
    int _col = 1;
    bool _splice = true;
};

} // namespace

LexedFile
lexSource(const std::string &path, const std::string &source)
{
    LexedFile out;
    out.path = path;
    Cursor c(source);
    bool line_start = true; // only whitespace seen so far on this line

    auto addError = [&](const std::string &what) {
        out.errors.push_back(LexError{c.line(), what});
    };

    auto markLine = [&](int line, const std::string &text) {
        LineMarks &m = out.marks[line];
        parseMarkers(text, m, out.fileTags);
        if (m.allowed.empty() && !m.nolint && !m.signalHandler)
            out.marks.erase(line);
    };

    // Consume a (non-raw) quoted literal whose opening delimiter has
    // been consumed; handles backslash escapes.
    auto skipQuoted = [&](char quote, const char *what) {
        int start_line = c.line();
        while (!c.atEnd()) {
            char ch = c.advance();
            if (ch == '\\' && !c.atEnd()) {
                c.advance();
                continue;
            }
            if (ch == quote)
                return;
            if (ch == '\n')
                break; // unterminated on this line
        }
        out.errors.push_back(
            LexError{start_line, std::string("unterminated ") + what});
    };

    while (!c.atEnd()) {
        char ch = c.peek();

        if (ch == '\n') {
            c.advance();
            line_start = true;
            continue;
        }
        if (ch == ' ' || ch == '\t' || ch == '\r' || ch == '\v' ||
            ch == '\f') {
            c.advance();
            continue;
        }

        // ---- comments --------------------------------------------
        if (ch == '/' && c.peek(1) == '/') {
            int line = c.line();
            std::string text;
            while (!c.atEnd() && c.peek() != '\n')
                text += c.advance();
            markLine(line, text);
            continue;
        }
        if (ch == '/' && c.peek(1) == '*') {
            c.advance();
            c.advance();
            std::string text;
            int line = c.line();
            bool closed = false;
            while (!c.atEnd()) {
                if (c.peek() == '*' && c.peek(1) == '/') {
                    c.advance();
                    c.advance();
                    closed = true;
                    break;
                }
                char cc = c.advance();
                if (cc == '\n') {
                    // Markers bind to the line they appear on.
                    markLine(line, text);
                    text.clear();
                    line = c.line();
                } else {
                    text += cc;
                }
            }
            markLine(line, text);
            if (!closed)
                out.errors.push_back(
                    LexError{line, "unterminated block comment"});
            continue;
        }

        // ---- #include directives ---------------------------------
        if (ch == '#' && line_start) {
            int line = c.line();
            int col = c.col();
            c.advance();
            while (c.peek() == ' ' || c.peek() == '\t')
                c.advance();
            std::string directive;
            while (isIdentChar(c.peek()))
                directive += c.advance();
            if (directive == "include" || directive == "include_next") {
                while (c.peek() == ' ' || c.peek() == '\t')
                    c.advance();
                char open = c.peek();
                if (open == '"' || open == '<') {
                    char close = open == '<' ? '>' : '"';
                    c.advance();
                    IncludeDirective inc;
                    inc.angled = open == '<';
                    inc.line = c.line();
                    while (!c.atEnd() && c.peek() != close &&
                           c.peek() != '\n')
                        inc.target += c.advance();
                    if (c.peek() == close)
                        c.advance();
                    else
                        addError("unterminated #include target");
                    out.includes.push_back(inc);
                }
                // Fall through to the main loop: a trailing comment on
                // the directive line still feeds suppression marks.
            } else {
                // Other directives are tokenized like code so rules
                // still see `#define BAD float`.
                out.tokens.push_back({TokKind::kPunct, "#", line, col});
                if (!directive.empty())
                    out.tokens.push_back(
                        {TokKind::kIdent, directive, line, col + 1});
            }
            line_start = false;
            continue;
        }

        line_start = false;
        int line = c.line();
        int col = c.col();

        // ---- identifiers (and string-literal prefixes) -----------
        if (isIdentStart(ch)) {
            std::string id;
            while (isIdentChar(c.peek()))
                id += c.advance();
            if (isStringPrefix(id) && (c.peek() == '"' || c.peek() == '\'')) {
                char quote = c.peek();
                c.advance();
                if (id.back() == 'R' && quote == '"') {
                    // Raw string: R"delim( ... )delim". Splices are
                    // reverted inside (the standard's exception to
                    // phase 2), so a backslash-newline in the body is
                    // two literal characters, never a continuation.
                    c.setSplicing(false);
                    int start_line = line;
                    std::string delim;
                    bool bad_delim = false;
                    while (!c.atEnd() && c.peek() != '(' &&
                           c.peek() != '\n') {
                        char dc = c.advance();
                        // d-chars exclude space, parens, backslash and
                        // control characters; 16 chars max.
                        if (dc == ' ' || dc == ')' || dc == '\\' ||
                            static_cast<unsigned char>(dc) < 0x20)
                            bad_delim = true;
                        delim += dc;
                    }
                    if (delim.size() > 16)
                        bad_delim = true;
                    if (c.peek() != '(' || bad_delim) {
                        addError(delim.size() > 16
                                     ? "raw string delimiter longer "
                                       "than 16 characters"
                                     : "malformed raw string delimiter");
                        c.setSplicing(true);
                        continue;
                    }
                    c.advance();
                    std::string close = ")" + delim + "\"";
                    std::string window;
                    bool done = false;
                    while (!c.atEnd()) {
                        window += c.advance();
                        if (window.size() >= close.size() &&
                            window.compare(window.size() - close.size(),
                                           close.size(), close) == 0) {
                            done = true;
                            break;
                        }
                    }
                    if (!done)
                        out.errors.push_back(LexError{
                            start_line, "unterminated raw string"});
                    c.setSplicing(true);
                } else {
                    skipQuoted(quote, quote == '"' ? "string literal"
                                                   : "character literal");
                }
                continue;
            }
            out.tokens.push_back({TokKind::kIdent, id, line, col});
            continue;
        }

        // ---- numbers (pp-number: digits, ', exponents, suffixes) --
        if (std::isdigit(static_cast<unsigned char>(ch)) ||
            (ch == '.' &&
             std::isdigit(static_cast<unsigned char>(c.peek(1))))) {
            std::string num;
            num += c.advance();
            while (!c.atEnd()) {
                char p = c.peek();
                if (isIdentChar(p) || p == '.') {
                    num += c.advance();
                } else if (p == '\'' &&
                           isIdentChar(c.peek(1))) {
                    c.advance(); // digit separator
                } else if ((p == '+' || p == '-') && !num.empty() &&
                           (num.back() == 'e' || num.back() == 'E' ||
                            num.back() == 'p' || num.back() == 'P')) {
                    num += c.advance();
                } else {
                    break;
                }
            }
            out.tokens.push_back({TokKind::kNumber, num, line, col});
            continue;
        }

        // ---- plain string / char literals ------------------------
        if (ch == '"') {
            c.advance();
            skipQuoted('"', "string literal");
            continue;
        }
        if (ch == '\'') {
            c.advance();
            skipQuoted('\'', "character literal");
            continue;
        }

        // ---- punctuation: `::` and `->` fused, rest single-char --
        std::string punct(1, c.advance());
        if ((ch == ':' && c.peek() == ':') || (ch == '-' && c.peek() == '>'))
            punct += c.advance();
        out.tokens.push_back({TokKind::kPunct, punct, line, col});
    }
    return out;
}

LexedFile
lexFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        LexedFile out;
        out.path = path;
        out.errors.push_back(LexError{0, "cannot open file"});
        return out;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return lexSource(path, ss.str());
}

} // namespace astra::lint

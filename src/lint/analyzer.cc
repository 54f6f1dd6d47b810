#include "lint/analyzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <tuple>

#include "lint/include_graph.hh"

namespace astra::lint
{

namespace
{

namespace fs = std::filesystem;

bool
isSourceFile(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".hpp";
}

std::string
relNormal(const std::string &p)
{
    return fs::path(p).lexically_normal().generic_string();
}

/** Compile @p pattern as ERE; nullopt-style via the bool result. */
bool
compileRegex(const std::string &pattern, std::regex &out)
{
    try {
        out = std::regex(pattern, std::regex::extended);
    } catch (const std::regex_error &) {
        return false;
    }
    return true;
}

/**
 * @p p made root-relative when it points inside @p root; relative
 * paths and paths outside the root pass through (normalized), so
 * reports carry the same bytes on every checkout.
 */
std::string
rootRelative(const std::string &p, const std::string &root)
{
    fs::path fp(p);
    if (!fp.is_absolute())
        return relNormal(p);
    fs::path rel = fp.lexically_relative(fs::absolute(root));
    if (rel.empty() || rel.begin()->string() == "..")
        return relNormal(p);
    return rel.lexically_normal().generic_string();
}

} // namespace

bool
loadAllowlist(const std::string &path, LintOptions &opts, std::string *err)
{
    int lineno = 0;
    auto fail = [&](const std::string &what) {
        if (err)
            *err = lineno == 0 ? path + ": " + what
                               : path + ":" + std::to_string(lineno) +
                                     ": " + what;
        return false;
    };
    std::ifstream in(path);
    if (!in)
        return fail("cannot open allowlist");
    std::string line;
    while (std::getline(in, line)) {
        ++lineno;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ss(line);
        std::string rule, pattern, extra;
        if (!(ss >> rule))
            continue; // blank line
        if (!(ss >> pattern) || (ss >> extra))
            return fail("want `<rule-id> <path-regex>`");
        if (rule != "*" && !knownRule(rule))
            return fail("unknown rule id '" + rule + "'");
        std::regex probe;
        if (!compileRegex(pattern, probe))
            return fail("bad regex '" + pattern + "'");
        opts.allow.push_back(AllowEntry{rule, pattern, path, lineno});
    }
    return true;
}

std::vector<std::string>
collectFiles(const LintOptions &opts, const std::vector<std::string> &paths)
{
    std::vector<std::string> out;
    for (const std::string &p : paths) {
        fs::path abs = fs::path(opts.root) / p;
        if (fs::is_directory(abs)) {
            for (fs::recursive_directory_iterator
                     it(abs, fs::directory_options::skip_permission_denied),
                 end;
                 it != end; ++it) {
                if (!it->is_regular_file() || !isSourceFile(it->path()))
                    continue;
                std::string rel =
                    fs::path(it->path())
                        .lexically_relative(opts.root)
                        .generic_string();
                rel = relNormal(rel);
                // A lint fixture corpus of deliberate violations.
                if (rel.find("lint/fixtures/") != std::string::npos)
                    continue;
                out.push_back(rel);
            }
        } else if (fs::exists(abs)) {
            // Explicitly named file; absolute paths inside the root
            // are relativized so diagnostics match directory walks.
            out.push_back(rootRelative(p, opts.root));
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<Diagnostic>
analyzeFiles(const LintOptions &opts, const std::vector<std::string> &files)
{
    std::vector<LexedFile> lexed;
    lexed.reserve(files.size());
    for (const std::string &f : files) {
        LexedFile lf = lexFile((fs::path(opts.root) / f).generic_string());
        lf.path = relNormal(f); // diagnostics: repo-relative
        lexed.push_back(std::move(lf));
    }

    // Unordered-container names declared per file, so a .cc sees the
    // members its sibling .hh declares.
    std::map<std::string, std::set<std::string>> declared;
    for (const LexedFile &lf : lexed)
        declared[lf.path] = unorderedNames(lf);

    std::vector<Diagnostic> diags;
    std::vector<SuppressionUse> uses;
    for (const LexedFile &lf : lexed) {
        std::set<std::string> extra;
        fs::path p(lf.path);
        if (p.extension() == ".cc" || p.extension() == ".cpp") {
            for (const char *hext : {".hh", ".hpp"}) {
                fs::path sibling = p;
                sibling.replace_extension(hext);
                auto it = declared.find(sibling.generic_string());
                if (it != declared.end())
                    extra.insert(it->second.begin(), it->second.end());
            }
        }
        runTokenRules(lf, extra, diags, &uses);
    }

    // The include graph needs every file at once.
    checkIncludeGraph(lexed, opts.root, diags, &uses);

    // Allowlist filter, counting the findings each entry absorbs: a
    // diagnostic must be tested against EVERY entry (not first-match)
    // so the stale pass below knows which entries are dead.
    std::vector<int> entry_hits(opts.allow.size(), 0);
    std::vector<std::pair<std::size_t, std::regex>> compiled;
    for (std::size_t n = 0; n < opts.allow.size(); ++n) {
        std::regex re;
        if (compileRegex(opts.allow[n].pattern, re))
            compiled.emplace_back(n, std::move(re));
    }
    auto allowed = [&](const Diagnostic &d) {
        bool hit = false;
        for (const auto &[n, re] : compiled) {
            const AllowEntry &entry = opts.allow[n];
            if ((entry.rule == "*" || entry.rule == d.rule) &&
                std::regex_search(d.file, re)) {
                ++entry_hits[n];
                hit = true;
            }
        }
        return hit;
    };
    diags.erase(std::remove_if(diags.begin(), diags.end(), allowed),
                diags.end());

    // Stale-suppression pass: every suppression written in the tree
    // must have absorbed at least one finding in this run. Stale
    // findings are appended after the allowlist filter on purpose —
    // a suppression cannot suppress the report of its own staleness.
    std::set<std::tuple<std::string, int, std::string>> used;
    for (const SuppressionUse &u : uses)
        used.insert({u.file, u.line, u.rule});
    for (const LexedFile &lf : lexed) {
        for (const auto &[line, m] : lf.marks) {
            for (const std::string &r : m.allowed) {
                if (!knownRule(r)) {
                    diags.push_back(Diagnostic{
                        lf.path, line, 1, "stale-suppression",
                        "allow(" + r + ") names no known rule"});
                    continue;
                }
                if (r == "stale-suppression")
                    continue;
                if (used.count({lf.path, line, r}) == 0)
                    diags.push_back(Diagnostic{
                        lf.path, line, 1, "stale-suppression",
                        "inline allow(" + r +
                            ") matched no finding on this line "
                            "(delete it)"});
            }
        }
    }
    for (std::size_t n = 0; n < opts.allow.size(); ++n) {
        const AllowEntry &e = opts.allow[n];
        if (entry_hits[n] == 0)
            diags.push_back(Diagnostic{
                // Root-relative, so a default allowlist loaded via an
                // absolute root reports the same path on every host.
                e.file.empty() ? std::string("<allowlist>")
                               : rootRelative(e.file, opts.root),
                e.line, 1, "stale-suppression",
                "allowlist entry `" + e.rule + " " + e.pattern +
                    "` matched no finding (delete it)"});
    }

    // Sort key: path, then position, then rule id.
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.col, a.rule) <
                         std::tie(b.file, b.line, b.col, b.rule);
              });
    return diags;
}

std::string
renderText(const std::vector<Diagnostic> &diags)
{
    std::ostringstream ss;
    for (const Diagnostic &d : diags) {
        ss << d.file << ":" << d.line << ":" << d.col << ": [" << d.rule
           << "] " << d.message << "\n";
    }
    return ss.str();
}

} // namespace astra::lint

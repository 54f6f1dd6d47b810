/**
 * @file
 * astra-lint test suite (docs/static-analysis.md): lexer and rule
 * units, the fixture corpus under tests/lint/fixtures/ (one positive and one
 * negative file per rule — positives declare their expected findings
 * inline with `FIRE(rule-id)` markers, asserted by exact rule-id,
 * file and line), the layering mini-trees, and a clean run over the
 * real src/tools/tests trees with the shipped allowlist. Every run
 * reports stale suppressions, as the CLI does.
 *
 * ASTRA_SOURCE_DIR is injected by tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/analyzer.hh"
#include "lint/include_graph.hh"
#include "lint/lexer.hh"

namespace astra::lint
{
namespace
{

const std::string kRoot = ASTRA_SOURCE_DIR;
const std::string kFixtures = "tests/lint/fixtures/";

using Finding = std::pair<int, std::string>; // (line, rule)

/** The deduplicated (line, rule) set of @p diags. */
std::set<Finding>
findingSet(const std::vector<Diagnostic> &diags)
{
    std::set<Finding> out;
    for (const Diagnostic &d : diags)
        out.insert({d.line, d.rule});
    return out;
}

/** Expected findings: every `FIRE(rule-id)` marker in @p relpath. */
std::set<Finding>
expectedFindings(const std::string &relpath)
{
    std::ifstream in(kRoot + "/" + relpath);
    EXPECT_TRUE(in.good()) << relpath;
    std::set<Finding> out;
    std::regex marker("FIRE\\(([a-z-]+)\\)");
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto begin = std::sregex_iterator(line.begin(), line.end(), marker);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            out.insert({lineno, (*it)[1].str()});
    }
    return out;
}

/** Analyze fixture files in-process, without any allowlist. */
std::vector<Diagnostic>
analyzeFixtures(const std::vector<std::string> &files)
{
    LintOptions opts;
    opts.root = kRoot;
    return analyzeFiles(opts, files);
}

/** Positive fixture: diagnostics must equal the FIRE markers exactly. */
void
expectMarkersMatch(const std::string &file,
                   const std::vector<std::string> &together = {})
{
    std::vector<std::string> files = together;
    files.push_back(kFixtures + file);
    std::vector<Diagnostic> diags = analyzeFixtures(files);
    for (const Diagnostic &d : diags)
        EXPECT_EQ(d.file, kFixtures + file) << d.rule;
    EXPECT_EQ(findingSet(diags), expectedFindings(kFixtures + file))
        << "fixture " << file;
    EXPECT_FALSE(expectedFindings(kFixtures + file).empty())
        << "positive fixture " << file << " declares no FIRE markers";
}

/** Negative fixture: zero diagnostics. */
void
expectClean(const std::string &file)
{
    std::vector<Diagnostic> diags = analyzeFixtures({kFixtures + file});
    EXPECT_TRUE(diags.empty())
        << "fixture " << file << " reported:\n" << renderText(diags);
}

// ---- lexer units -----------------------------------------------------

TEST(LintLexer, SkipsCommentsAndStrings)
{
    LexedFile f = lexSource("t.cc",
                            "int a; // float rand() throw\n"
                            "/* new Foo() */ const char *s = \"float\";\n");
    for (const Token &t : f.tokens) {
        EXPECT_NE(t.text, "float");
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "throw");
        EXPECT_NE(t.text, "new");
        EXPECT_NE(t.text, "Foo");
    }
    EXPECT_TRUE(f.errors.empty());
}

TEST(LintLexer, RawStringsAreOpaque)
{
    LexedFile f = lexSource(
        "t.cc", "const char *s = R\"x(float \" rand() )\" )x\"; int z;\n");
    bool saw_z = false;
    for (const Token &t : f.tokens) {
        EXPECT_NE(t.text, "float");
        EXPECT_NE(t.text, "rand");
        saw_z = saw_z || t.text == "z";
    }
    EXPECT_TRUE(saw_z); // lexing resumed after the raw string
    EXPECT_TRUE(f.errors.empty());
}

TEST(LintLexer, RecordsIncludesWithLines)
{
    LexedFile f = lexSource("t.cc",
                            "#include <vector>\n"
                            "#include \"common/types.hh\"\n");
    ASSERT_EQ(f.includes.size(), 2u);
    EXPECT_TRUE(f.includes[0].angled);
    EXPECT_EQ(f.includes[0].target, "vector");
    EXPECT_EQ(f.includes[0].line, 1);
    EXPECT_FALSE(f.includes[1].angled);
    EXPECT_EQ(f.includes[1].target, "common/types.hh");
    EXPECT_EQ(f.includes[1].line, 2);
}

TEST(LintLexer, ParsesSuppressionMarks)
{
    LexedFile f = lexSource(
        "t.cc",
        "int a; // NOLINT\n"
        "int b; // astra-lint: allow(no-float, unordered-iter)\n"
        "int c;\n");
    ASSERT_TRUE(f.marks.count(1));
    EXPECT_TRUE(f.marks.at(1).nolint);
    ASSERT_TRUE(f.marks.count(2));
    EXPECT_TRUE(f.marks.at(2).allowed.count("no-float"));
    EXPECT_TRUE(f.marks.at(2).allowed.count("unordered-iter"));
    EXPECT_FALSE(f.marks.count(3));
}

TEST(LintLexer, ParsesFileTags)
{
    LexedFile f = lexSource(
        "t.cc",
        "// astra-lint: allocator-tu (slab implementation)\n"
        "int a; // astra-lint: allow(no-float)\n"
        "// plain prose mentioning astra-lint: nothing more\n");
    EXPECT_TRUE(f.fileTags.count("allocator-tu"));
    // allow(...) lists are line marks, never file tags.
    EXPECT_FALSE(f.fileTags.count("allow"));
    // Prose after the colon still yields a word ("nothing") — tags are
    // cheap declarations, not validated identifiers — but only exact
    // matches mean anything to the rules.
    EXPECT_FALSE(f.fileTags.count("prose"));
    ASSERT_TRUE(f.marks.count(2));
    EXPECT_TRUE(f.marks.at(2).allowed.count("no-float"));
}

TEST(LintLexer, SplicesLinesInsideTokens)
{
    // Translation phase 2: `flo\<newline>at` is the single token
    // `float`, exactly what a determined contributor would write to
    // sneak a float past a byte-oriented grep.
    LexedFile f = lexSource("t.cc", "flo\\\nat x = 1;\n");
    ASSERT_FALSE(f.tokens.empty());
    EXPECT_EQ(f.tokens[0].text, "float");
    EXPECT_EQ(f.tokens[0].line, 1);
    EXPECT_TRUE(f.errors.empty());
}

TEST(LintLexer, SplicedCommentSwallowsNextLine)
{
    // A `//` comment ending in a backslash continues onto the next
    // physical line, so the `float` below never becomes a token.
    LexedFile f = lexSource("t.cc", "int a; // spliced \\\nfloat b;\nint c;\n");
    for (const Token &t : f.tokens)
        EXPECT_NE(t.text, "float");
    bool saw_c = false;
    for (const Token &t : f.tokens)
        saw_c = saw_c || t.text == "c";
    EXPECT_TRUE(saw_c);
}

TEST(LintLexer, RawStringsDoNotSplice)
{
    // Inside a raw string a backslash-newline is literal content, not
    // a splice: the `)x"` terminator on the next line must still be
    // found, and lexing resumes after it.
    LexedFile f =
        lexSource("t.cc", "const char *s = R\"x(a\\\nb)x\"; int z;\n");
    EXPECT_TRUE(f.errors.empty())
        << (f.errors.empty() ? "" : f.errors[0].what);
    bool saw_z = false;
    for (const Token &t : f.tokens)
        saw_z = saw_z || t.text == "z";
    EXPECT_TRUE(saw_z);
}

TEST(LintLexer, RawStringDelimiterValidated)
{
    // A d-char-seq may not contain spaces (or parens/backslash) and is
    // capped at 16 characters; both malformations are reported instead
    // of silently desynchronizing the lexer.
    LexedFile bad_space = lexSource("t.cc", "auto s = R\"a b(x)a b\";\n");
    EXPECT_FALSE(bad_space.errors.empty());
    LexedFile bad_long = lexSource(
        "t.cc", "auto s = R\"abcdefghijklmnopq(x)abcdefghijklmnopq\";\n");
    EXPECT_FALSE(bad_long.errors.empty());
    LexedFile unterminated = lexSource("t.cc", "auto s = R\"x(never ends\n");
    EXPECT_FALSE(unterminated.errors.empty());
}

TEST(LintLexer, ParsesSignalHandlerMark)
{
    LexedFile f = lexSource("t.cc",
                            "// astra-lint: signal-handler\n"
                            "void h(int) {}\n"
                            "// astra-lint: signal-handlers\n");
    ASSERT_TRUE(f.marks.count(1));
    EXPECT_TRUE(f.marks.at(1).signalHandler);
    EXPECT_FALSE(f.fileTags.count("signal-handler")); // a line mark
    EXPECT_FALSE(f.marks.count(2));
    // A longer word is a file tag, not the mark.
    EXPECT_FALSE(f.marks.count(3));
    EXPECT_TRUE(f.fileTags.count("signal-handlers"));
}

TEST(LintLexer, TracksPositions)
{
    LexedFile f = lexSource("t.cc", "int a;\n  long b;\n");
    ASSERT_GE(f.tokens.size(), 5u);
    EXPECT_EQ(f.tokens[0].text, "int");
    EXPECT_EQ(f.tokens[0].line, 1);
    EXPECT_EQ(f.tokens[0].col, 1);
    EXPECT_EQ(f.tokens[3].text, "long");
    EXPECT_EQ(f.tokens[3].line, 2);
    EXPECT_EQ(f.tokens[3].col, 3);
}

// ---- rule registry ---------------------------------------------------

TEST(LintRules, RegistryKnowsEveryRule)
{
    EXPECT_TRUE(knownRule("no-float"));
    EXPECT_TRUE(knownRule("layer-dag"));
    EXPECT_TRUE(knownRule("allocator-tu"));
    EXPECT_TRUE(knownRule("hot-path-alloc"));
    EXPECT_TRUE(knownRule("stale-suppression"));
    EXPECT_TRUE(knownRule("signal-unsafe"));
    // Retired ids: an allow(...) naming one is a stale suppression.
    for (const char *retired :
         {"shared-state", "unresolved-mutex", "thread-capture",
          "use-after-move", "lock-across-wait", "signal-unsafe-transitive",
          "unchecked-outcome"})
        EXPECT_FALSE(knownRule(retired)) << retired;
    EXPECT_FALSE(knownRule("no-such-rule"));
    EXPECT_EQ(allRules().size(), 16u);
}

TEST(LintRules, SignalUnsafeIsBodyLocal)
{
    // Atomic member operations are the whole allowed vocabulary; any
    // other call fires, because the callee's body is out of sight. A
    // tagged declaration without a body binds nothing.
    LexedFile f = lexSource(
        "t.cc",
        "// astra-lint: signal-handler\n"
        "void declared(int);\n"
        "void helper() { g_log.flush(); }\n"
        "// astra-lint: signal-handler\n"
        "void handler(int sig)\n"
        "{\n"
        "    if (sizeof(sig) > 0)\n"
        "        g_flag.store(sig, std::memory_order_relaxed);\n"
        "    g_count.fetch_add(1);\n"
        "    g_seen.compare_exchange_strong(g_expected, 1);\n"
        "    g_log.flush();\n"
        "    helper();\n"
        "}\n");
    std::vector<Diagnostic> diags;
    runTokenRules(f, {}, diags);
    std::set<Finding> want = {{11, "signal-unsafe"}, {12, "signal-unsafe"}};
    EXPECT_EQ(findingSet(diags), want) << renderText(diags);
}

// ---- fixture corpus: one positive + one negative per rule ------------

TEST(LintFixtures, NoRand)
{
    expectMarkersMatch("no_rand_bad.cc");
    expectClean("no_rand_ok.cc");
}

TEST(LintFixtures, NoWallClock)
{
    expectMarkersMatch("no_wall_clock_bad.cc");
    expectClean("no_wall_clock_ok.cc");
}

TEST(LintFixtures, NoFloat)
{
    expectMarkersMatch("no_float_bad.cc");
    expectClean("no_float_ok.cc");
}

TEST(LintFixtures, NoNakedNew)
{
    expectMarkersMatch("no_naked_new_bad.cc");
    expectClean("no_naked_new_ok.cc");
}

TEST(LintFixtures, AllocatorTu)
{
    expectMarkersMatch("allocator_tu_bad.cc");
    expectClean("allocator_tu_ok.cc");
}

TEST(LintFixtures, NoThrow)
{
    expectMarkersMatch("no_throw_bad.cc");
    expectClean("no_throw_ok.cc");
}

TEST(LintFixtures, NoAbort)
{
    expectMarkersMatch("no_abort_bad.cc");
    expectClean("no_abort_ok.cc");
}

TEST(LintFixtures, UnorderedIter)
{
    expectMarkersMatch("unordered_iter_bad.cc");
    expectClean("unordered_iter_ok.cc");
}

TEST(LintFixtures, UnorderedIterAcrossSiblingHeader)
{
    // The .cc iterates a member its sibling .hh declares; the header
    // itself is clean.
    expectMarkersMatch("member_iter.cc", {kFixtures + "member_iter.hh"});
}

TEST(LintFixtures, PtrKeyOrder)
{
    expectMarkersMatch("ptr_key_order_bad.cc");
    expectClean("ptr_key_order_ok.cc");
}

TEST(LintFixtures, PtrSort)
{
    expectMarkersMatch("ptr_sort_bad.cc");
    expectClean("ptr_sort_ok.cc");
}

TEST(LintFixtures, ParseError)
{
    expectMarkersMatch("parse_error_bad.cc");
}

TEST(LintFixtures, SignalUnsafe)
{
    expectMarkersMatch("signal_unsafe_bad.cc");
    expectClean("signal_unsafe_ok.cc");
}

TEST(LintFixtures, HotPathAlloc)
{
    expectMarkersMatch("hot_path_alloc_bad.cc");
    expectClean("hot_path_alloc_ok.cc");
}

TEST(LintFixtures, StaleSuppression)
{
    expectMarkersMatch("stale_suppression_bad.cc");
    expectClean("stale_suppression_ok.cc");
}

// ---- layering mini-trees ---------------------------------------------

TEST(LintLayering, SeededViolationsFire)
{
    LintOptions opts;
    opts.root = kRoot + "/tests/lint/fixtures/layering/bad";
    std::vector<Diagnostic> diags =
        analyzeFiles(opts, collectFiles(opts, {"src"}));

    std::set<std::string> files_with_markers = {
        "src/common/util.hh", "src/core/engine.hh", "src/net/wire.hh"};
    std::set<Finding> got;
    for (const Diagnostic &d : diags)
        got.insert({d.line, d.rule});
    std::set<Finding> want;
    for (const std::string &f : files_with_markers) {
        std::ifstream in(opts.root + "/" + f);
        std::regex marker("FIRE\\(([a-z-]+)\\)");
        std::string line;
        int lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            auto begin =
                std::sregex_iterator(line.begin(), line.end(), marker);
            for (auto it = begin; it != std::sregex_iterator(); ++it)
                want.insert({lineno, (*it)[1].str()});
        }
    }
    EXPECT_EQ(got, want) << renderText(diags);
}

TEST(LintLayering, RealShapedTreePasses)
{
    LintOptions opts;
    opts.root = kRoot + "/tests/lint/fixtures/layering/good";
    std::vector<Diagnostic> diags =
        analyzeFiles(opts, collectFiles(opts, {"src"}));
    EXPECT_TRUE(diags.empty()) << renderText(diags);
}

TEST(LintLayering, RankTableMatchesDesign)
{
    EXPECT_EQ(layerRank("src/common/json.hh"), 0);
    EXPECT_EQ(layerRank("src/fault/fault.hh"),
              layerRank("src/compute/systolic.hh"));
    EXPECT_EQ(layerRank("src/net/fabric.hh"),
              layerRank("src/topo/topology.hh"));
    EXPECT_LT(layerRank("src/collective/algorithm.hh"),
              layerRank("src/core/sys.hh"));
    EXPECT_LT(layerRank("src/core/sys.hh"),
              layerRank("src/workload/trainer.hh"));
    EXPECT_GT(layerRank("tools/astra_sim.cc"),
              layerRank("src/explore/design_space.hh"));
    EXPECT_EQ(layerName("src/core/sys.hh"), "core");
    EXPECT_EQ(layerName("tests/lint/lint_test.cc"), "tests");
}

// ---- allowlist --------------------------------------------------------

TEST(LintConfig, AllowlistSuppressesByPath)
{
    LintOptions opts;
    opts.root = kRoot;
    opts.allow.push_back(AllowEntry{"no-rand", "no_rand_bad\\.cc$"});
    std::vector<Diagnostic> diags =
        analyzeFiles(opts, {kFixtures + "no_rand_bad.cc"});
    EXPECT_TRUE(diags.empty()) << renderText(diags);
}

TEST(LintConfig, ShippedAllowlistParses)
{
    LintOptions opts;
    std::string err;
    EXPECT_TRUE(loadAllowlist(kRoot + "/tools/lint-allow.conf", opts, &err))
        << err;
    EXPECT_FALSE(opts.allow.empty());
}

TEST(LintConfig, BadAllowlistRejected)
{
    LintOptions opts;
    std::string err;
    std::string bad = testing::TempDir() + "/bad_allow.conf";
    std::ofstream(bad) << "definitely-not-a-rule .*\n";
    EXPECT_FALSE(loadAllowlist(bad, opts, &err));
    EXPECT_NE(err.find("unknown rule"), std::string::npos) << err;
}

// ---- the real tree ---------------------------------------------------

TEST(LintRealTree, SrcToolsTestsAreClean)
{
    LintOptions opts;
    opts.root = kRoot;
    std::string err;
    ASSERT_TRUE(loadAllowlist(kRoot + "/tools/lint-allow.conf", opts, &err))
        << err;
    std::vector<std::string> files =
        collectFiles(opts, {"src", "tools", "tests"});
    EXPECT_GT(files.size(), 100u); // the walk really found the tree
    for (const std::string &f : files)
        EXPECT_EQ(f.find("lint/fixtures/"), std::string::npos) << f;
    std::vector<Diagnostic> diags = analyzeFiles(opts, files);
    EXPECT_TRUE(diags.empty()) << renderText(diags);
}

} // namespace
} // namespace astra::lint

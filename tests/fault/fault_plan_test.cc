/**
 * @file
 * FaultPlan parsing/normalization and FaultManager query semantics
 * (docs/faults.md). Pure unit tests — no cluster, no event queue.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "fault/fault.hh"

namespace astra
{
namespace
{

// --- parsing ----------------------------------------------------------

TEST(FaultPlan, ParsesDegradeRule)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(plan.parseRule(
        "degrade link=3 from=100 to=500 factor=0.25", &err))
        << err;
    ASSERT_EQ(plan.windows().size(), 1u);
    const LinkWindow &w = plan.windows()[0];
    EXPECT_EQ(w.link, 3);
    EXPECT_EQ(w.t0, 100u);
    EXPECT_EQ(w.t1, 500u);
    EXPECT_DOUBLE_EQ(w.factor, 0.25);
}

TEST(FaultPlan, ParsesDownRuleWithAliasesAndOpenEnd)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(plan.parseRule("down link=7 t0=50 t1=end", &err)) << err;
    ASSERT_EQ(plan.windows().size(), 1u);
    EXPECT_DOUBLE_EQ(plan.windows()[0].factor, 0.0);
    EXPECT_EQ(plan.windows()[0].t1, FaultPlan::kEnd);
}

TEST(FaultPlan, ParsesStragglerAndDropRules)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(plan.parseRule("straggle node=5 factor=1.5", &err))
        << err;
    ASSERT_TRUE(plan.parseRule("straggler node=2 factor=2", &err))
        << err;
    ASSERT_TRUE(plan.parseRule("drop link=0 every=64 limit=10", &err))
        << err;
    EXPECT_EQ(plan.stragglers().size(), 2u);
    ASSERT_EQ(plan.drops().size(), 1u);
    // Window defaults: the whole run.
    EXPECT_EQ(plan.drops()[0].t0, 0u);
    EXPECT_EQ(plan.drops()[0].t1, FaultPlan::kEnd);
    EXPECT_EQ(plan.drops()[0].limit, 10u);
}

TEST(FaultPlan, RejectsMalformedRules)
{
    const char *bad[] = {
        "",                                        // empty
        "explode link=1 from=0 to=9",              // unknown verb
        "degrade link=1 from=0 to=9",              // missing factor
        "degrade link=1 from=0 to=9 factor=0",     // factor out of range
        "degrade link=1 from=0 to=9 factor=1.5",   // factor out of range
        "degrade link=1 from=9 to=9 factor=0.5",   // empty window
        "degrade link=1 from=end to=end factor=1", // t0 must be finite
        "down link=-1 from=0 to=9",                // negative link
        "down link=1",                             // missing window
        "down link=1 from=0 to=9 from=2",          // duplicate key
        "down link=1 from=0 to=9 bogus=3",         // unknown key
        "straggle node=0 factor=0.5",              // factor < 1
        "straggle node=0 factor=inf",              // factor not finite
        "straggle node=0 factor=nan",              // factor not finite
        "degrade link=1 from=0 to=9 factor=nan",   // factor not finite
        "straggle node=2x factor=2",               // trailing junk
        "down link=1 from=0 to=-9",                // negative tick
        "drop link=1 every=64 limit=-1",           // negative limit
        "drop link=1 every=0",                     // every must be >= 1
        "drop link=1",                             // missing every
    };
    for (const char *rule : bad) {
        FaultPlan plan;
        std::string err;
        EXPECT_FALSE(plan.parseRule(rule, &err)) << rule;
        EXPECT_FALSE(err.empty()) << rule;
        EXPECT_TRUE(plan.empty()) << rule; // plan unchanged on failure
    }
}

TEST(FaultPlan, AddRuleIsFatalOnMalformedRule)
{
    FaultPlan plan;
    EXPECT_THROW(plan.addRule("degrade link=1"), FatalError);
    EXPECT_NO_THROW(plan.addRule("down link=1 from=0 to=10"));
}

TEST(FaultPlan, LoadsFileWithCommentsCrlfAndNoTrailingNewline)
{
    const std::string path = ::testing::TempDir() + "plan_crlf.txt";
    {
        std::ofstream out(path, std::ios::binary);
        out << "# header comment\r\n"
            << "down link=1 from=0 to=10\r\n"
            << "\r\n"
            << "straggle node=0 factor=2"; // no trailing newline
    }
    FaultPlan plan;
    plan.loadFile(path);
    EXPECT_EQ(plan.windows().size(), 1u);
    EXPECT_EQ(plan.stragglers().size(), 1u);
    std::remove(path.c_str());
}

TEST(FaultPlan, LoadFileCollectsEveryBadLineIntoOneError)
{
    const std::string path = ::testing::TempDir() + "plan_bad.txt";
    {
        std::ofstream out(path);
        out << "down link=1 from=0 to=10\n"
            << "explode everything\n"
            << "drop link=2 every=0\n";
    }
    FaultPlan plan;
    try {
        plan.loadFile(path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 bad fault rule(s)"), std::string::npos)
            << what;
        EXPECT_NE(what.find(":2:"), std::string::npos) << what;
        EXPECT_NE(what.find(":3:"), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(FaultPlan, FromConfigCollectsRuleErrorsAndCopiesRetryPolicy)
{
    SimConfig cfg;
    cfg.torus(1, 2, 1);
    cfg.faultRules = {"down link=0 from=0 to=10"};
    cfg.faultTimeout = 500;
    cfg.faultMaxRetries = 7;
    FaultPlan plan = FaultPlan::fromConfig(cfg);
    EXPECT_EQ(plan.windows().size(), 1u);
    EXPECT_EQ(plan.retryTimeout, 500u);
    EXPECT_EQ(plan.maxRetries, 7);

    cfg.faultRules = {"bogus one", "drop link=1 every=0"};
    try {
        FaultPlan::fromConfig(cfg);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 bad fault rule(s)"), std::string::npos)
            << what;
        EXPECT_NE(what.find("fault rule 1"), std::string::npos) << what;
        EXPECT_NE(what.find("fault rule 2"), std::string::npos) << what;
    }
}

// --- normalization ----------------------------------------------------

TEST(FaultPlan, NormalizeMergesOverlappingDownWindows)
{
    FaultPlan plan;
    plan.addRule("down link=2 from=100 to=200");
    plan.addRule("down link=2 from=150 to=300");
    plan.addRule("down link=2 from=300 to=400"); // adjacent
    plan.addRule("down link=3 from=100 to=200"); // other link untouched
    plan.normalize();
    ASSERT_EQ(plan.windows().size(), 2u);
    EXPECT_EQ(plan.windows()[0].link, 2);
    EXPECT_EQ(plan.windows()[0].t0, 100u);
    EXPECT_EQ(plan.windows()[0].t1, 400u);
    EXPECT_EQ(plan.windows()[1].link, 3);
}

TEST(FaultPlan, NormalizeKeepsDegradedWindowsSeparate)
{
    FaultPlan plan;
    plan.addRule("degrade link=1 from=0 to=100 factor=0.5");
    plan.addRule("degrade link=1 from=50 to=150 factor=0.25");
    plan.normalize();
    EXPECT_EQ(plan.windows().size(), 2u);
}

// --- FaultManager queries ---------------------------------------------

TEST(FaultManager, BandwidthFactorIsMinOverCoveringWindows)
{
    FaultPlan plan;
    plan.addRule("degrade link=1 from=100 to=200 factor=0.5");
    plan.addRule("degrade link=1 from=150 to=250 factor=0.25");
    FaultManager fm(std::move(plan));
    EXPECT_DOUBLE_EQ(fm.bandwidthFactor(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(fm.bandwidthFactor(1, 100), 0.5);
    EXPECT_DOUBLE_EQ(fm.bandwidthFactor(1, 175), 0.25);
    EXPECT_DOUBLE_EQ(fm.bandwidthFactor(1, 200), 0.25);
    EXPECT_DOUBLE_EQ(fm.bandwidthFactor(1, 250), 1.0); // t1 exclusive
    EXPECT_DOUBLE_EQ(fm.bandwidthFactor(9, 175), 1.0); // other link
}

TEST(FaultManager, DownUntilAndDownForever)
{
    FaultPlan plan;
    plan.addRule("down link=4 from=100 to=200");
    plan.addRule("down link=5 from=100 to=end");
    FaultManager fm(std::move(plan));
    EXPECT_EQ(fm.downUntil(4, 50), 0u);
    EXPECT_EQ(fm.downUntil(4, 150), 200u);
    EXPECT_DOUBLE_EQ(fm.bandwidthFactor(4, 150), 0.0);
    EXPECT_EQ(fm.downUntil(5, 150), FaultPlan::kEnd);
    EXPECT_FALSE(fm.downForever(4));
    EXPECT_TRUE(fm.downForever(5));
}

TEST(FaultManager, ComputeSlowdownTakesTheLargestFactor)
{
    FaultPlan plan;
    plan.addRule("straggle node=3 factor=1.5");
    plan.addRule("straggle node=3 factor=2.5");
    FaultManager fm(std::move(plan));
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(3), 2.5);
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(0), 1.0);
}

TEST(FaultManager, CountedDropPatternIsDeterministic)
{
    FaultPlan plan;
    plan.addRule("drop link=0 every=4 limit=2");
    FaultManager fm(std::move(plan));
    std::vector<bool> pattern;
    for (int i = 0; i < 16; ++i)
        pattern.push_back(fm.shouldDropPacket(0, Tick(i)));
    // Grants 4 and 8 drop; the limit stops the third.
    const std::vector<bool> expect = {false, false, false, true,
                                      false, false, false, true,
                                      false, false, false, false,
                                      false, false, false, false};
    EXPECT_EQ(pattern, expect);
    EXPECT_EQ(fm.dropsInjected(), 2u);
    // Other links never drop.
    EXPECT_FALSE(fm.shouldDropPacket(1, 0));
}

TEST(FaultManager, DropWindowGatesTheCounter)
{
    FaultPlan plan;
    plan.addRule("drop link=0 every=2 from=10 to=20");
    FaultManager fm(std::move(plan));
    EXPECT_FALSE(fm.shouldDropPacket(0, 5));  // outside: not counted
    EXPECT_FALSE(fm.shouldDropPacket(0, 10)); // seen=1
    EXPECT_TRUE(fm.shouldDropPacket(0, 11));  // seen=2 -> drop
    EXPECT_FALSE(fm.shouldDropPacket(0, 25)); // outside again
}

TEST(FaultManager, PickChannelReplansAroundForeverDownLinks)
{
    // Ring rows: dim 0 has channels 0 (links 0,1) and 1 (links 2,3).
    const std::int32_t ch0[] = {0, 1};
    const std::int32_t ch1[] = {2, 3};
    auto bindRings = [&](FaultManager &fm) {
        fm.bindRingChannel(0, 0, ch0);
        fm.bindRingChannel(0, 1, ch1);
    };

    {
        // No relevant faults: the historical id % channels choice.
        FaultPlan plan;
        plan.addRule("down link=2 from=0 to=100"); // transient only
        FaultManager fm(std::move(plan));
        bindRings(fm);
        EXPECT_EQ(fm.pickChannel(0, 2, 5), 1);
        EXPECT_EQ(fm.pickChannel(0, 2, 6), 0);
    }
    {
        // Channel 1 contains a forever-down link: re-plan onto 0.
        FaultPlan plan;
        plan.addRule("down link=2 from=50 to=end");
        FaultManager fm(std::move(plan));
        bindRings(fm);
        EXPECT_EQ(fm.pickChannel(0, 2, 5), 0);
        EXPECT_EQ(fm.pickChannel(0, 2, 6), 0);
        // Unbound dimension: fall back to id % channels.
        EXPECT_EQ(fm.pickChannel(1, 2, 5), 1);
    }
    {
        // Every channel dead: nowhere to re-plan, keep the fallback.
        FaultPlan plan;
        plan.addRule("down link=0 from=0 to=end");
        plan.addRule("down link=2 from=0 to=end");
        FaultManager fm(std::move(plan));
        bindRings(fm);
        EXPECT_EQ(fm.pickChannel(0, 2, 5), 1);
    }
}

// --- failure reports --------------------------------------------------

TEST(FailureReport, FormatsTextAndJson)
{
    std::vector<FailureRecord> failures(1);
    failures[0].node = 2;
    failures[0].link = 7;
    failures[0].stream = 11;
    failures[0].tick = 1234;
    failures[0].retries = 3;
    failures[0].reason = "send 2 -> 3 lost";

    EXPECT_EQ(formatFailureReport(RunOutcome::Completed, {}), "");
    const std::string text =
        formatFailureReport(RunOutcome::Degraded, failures);
    EXPECT_NE(text.find("outcome: degraded"), std::string::npos);
    EXPECT_NE(text.find("1 failed transfer(s)"), std::string::npos);
    EXPECT_NE(text.find("node 2 link 7 stream 11"), std::string::npos);

    const std::string json =
        failureReportJsonMembers(RunOutcome::Degraded, failures);
    EXPECT_NE(json.find("\"outcome\": \"degraded\""), std::string::npos);
    EXPECT_NE(json.find("\"retries\": 3"), std::string::npos);
    // Raw members ready for MetricRegistry::toJson splicing.
    EXPECT_EQ(json.substr(json.size() - 2), ",\n");
}

} // namespace
} // namespace astra

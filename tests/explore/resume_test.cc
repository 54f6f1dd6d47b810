/**
 * @file
 * Crash containment and journaled resume for sweeps
 * (docs/robustness.md): a poisoned candidate must not abort the sweep,
 * and an interrupted sweep resumed from its journal must merge to the
 * bit-identical result table a never-interrupted serial run produces.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/units.hh"
#include "explore/design_space.hh"
#include "guard/interrupt.hh"
#include "guard/journal.hh"

namespace astra
{
namespace
{

ExploreSpec
smallSpec()
{
    ExploreSpec spec;
    spec.modules = 4;
    spec.localDims = {1, 2};
    spec.bytes = 64 * KiB;
    return spec;
}

void
expectBitIdentical(const std::vector<CandidateResult> &want,
                   const std::vector<CandidateResult> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].label, got[i].label) << "rank " << i;
        EXPECT_EQ(want[i].outcome, got[i].outcome) << want[i].label;
        EXPECT_EQ(want[i].commTime, got[i].commTime) << want[i].label;
        EXPECT_EQ(want[i].energyUj, got[i].energyUj) << want[i].label;
        EXPECT_EQ(want[i].digest, got[i].digest) << want[i].label;
    }
}

TEST(SweepContainment, PoisonedCandidateDoesNotAbortTheSweep)
{
    const ExploreSpec spec = smallSpec();
    auto clean = enumerateCandidates(spec);
    auto poisoned = enumerateCandidates(spec);
    ASSERT_GE(poisoned.size(), 3u);
    // Zero bandwidth fails the config ASTRA_CHECK when the candidate's
    // Cluster is built — exactly the poisoned-candidate shape.
    poisoned[1].cfg.local.bandwidth = 0.0;

    evaluateCandidates(clean, spec.kind, spec.bytes, 2);
    evaluateCandidates(poisoned, spec.kind, spec.bytes, 2);

    for (std::size_t i = 0; i < poisoned.size(); ++i) {
        if (i == 1)
            continue;
        // Every healthy candidate completed, bit-identical to the
        // all-clean sweep: the contained failure leaked nothing.
        EXPECT_EQ(poisoned[i].outcome, RunOutcome::Completed);
        EXPECT_EQ(poisoned[i].commTime, clean[i].commTime)
            << poisoned[i].label;
        EXPECT_EQ(poisoned[i].digest, clean[i].digest)
            << poisoned[i].label;
    }
    EXPECT_EQ(poisoned[1].outcome, RunOutcome::Failed);
    EXPECT_EQ(poisoned[1].commTime, 0u);
    ASSERT_FALSE(poisoned[1].failures.empty());
    EXPECT_EQ(poisoned[1].failures[0].reason.rfind("check: ", 0), 0u)
        << poisoned[1].failures[0].reason;
}

TEST(SweepContainment, FailedCandidateRanksLast)
{
    // A contained failure's zero commTime must not crown it the
    // winner: exploreDesignSpace ranks Completed candidates first.
    const ExploreSpec spec = smallSpec();
    auto results = exploreDesignSpace(spec, 2);
    for (const CandidateResult &r : results)
        EXPECT_EQ(r.outcome, RunOutcome::Completed) << r.label;
}

TEST(SweepResume, JournalRestoreIsBitIdentical)
{
    const std::string path =
        ::testing::TempDir() + "astra_resume_roundtrip.journal";
    const ExploreSpec spec = smallSpec();

    auto first = enumerateCandidates(spec);
    {
        guard::SweepJournal journal(path, /*resume=*/false);
        evaluateCandidates(first, spec.kind, spec.bytes, 2, &journal);
    }
    for (const CandidateResult &r : first)
        EXPECT_FALSE(r.restored) << r.label;

    auto second = enumerateCandidates(spec);
    guard::SweepJournal journal(path, /*resume=*/true);
    EXPECT_EQ(journal.restoredCount(), first.size());
    evaluateCandidates(second, spec.kind, spec.bytes, 1, &journal);
    for (const CandidateResult &r : second)
        EXPECT_TRUE(r.restored) << r.label;
    expectBitIdentical(first, second);
    std::remove(path.c_str());
}

TEST(SweepResume, InterruptedCandidatesAreRerunOnResume)
{
    const std::string path =
        ::testing::TempDir() + "astra_resume_interrupt.journal";
    const ExploreSpec spec = smallSpec();

    // Uninterrupted serial baseline: the bit-identity gate.
    auto baseline = enumerateCandidates(spec);
    evaluateCandidates(baseline, spec.kind, spec.bytes, 1);

    // Interrupt pending before the sweep starts: every candidate is
    // skipped at its boundary, none is journaled.
    auto interrupted = enumerateCandidates(spec);
    {
        guard::SweepJournal journal(path, /*resume=*/false);
        guard::clearInterrupt();
        guard::requestInterrupt();
        evaluateCandidates(interrupted, spec.kind, spec.bytes, 2,
                           &journal);
        guard::clearInterrupt();
    }
    for (const CandidateResult &r : interrupted) {
        EXPECT_EQ(r.outcome, RunOutcome::Interrupted) << r.label;
        EXPECT_FALSE(r.restored) << r.label;
    }

    // Resume: nothing was journaled, so everything re-runs — and the
    // merged result is bit-identical to the uninterrupted baseline.
    auto resumed = enumerateCandidates(spec);
    guard::SweepJournal journal(path, /*resume=*/true);
    EXPECT_EQ(journal.restoredCount(), 0u);
    evaluateCandidates(resumed, spec.kind, spec.bytes, 2, &journal);
    for (const CandidateResult &r : resumed)
        EXPECT_FALSE(r.restored) << r.label;
    expectBitIdentical(baseline, resumed);
    std::remove(path.c_str());
}

} // namespace
} // namespace astra

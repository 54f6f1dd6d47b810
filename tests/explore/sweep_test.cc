#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel_for.hh"
#include "common/units.hh"
#include "explore/design_space.hh"

namespace astra
{
namespace
{

/** A spec that exercises every enumeration branch: multiple torus
 *  factorizations, the all-to-all platforms, both algorithm flavours
 *  and a chunking sweep. */
ExploreSpec
representativeSpec()
{
    ExploreSpec spec;
    spec.modules = 16;
    spec.localDims = {1, 2, 4};
    spec.includeAllToAll = true;
    spec.sweepFlavors = true;
    spec.setSplits = {1, 8};
    spec.bytes = 256 * KiB;
    return spec;
}

void
expectBitIdentical(const std::vector<CandidateResult> &serial,
                   const std::vector<CandidateResult> &parallel)
{
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, parallel[i].label) << "rank " << i;
        EXPECT_EQ(serial[i].commTime, parallel[i].commTime)
            << serial[i].label;
        // Exact double equality on purpose: the parallel path must run
        // the very same computation, not an approximation of it.
        EXPECT_EQ(serial[i].energyUj, parallel[i].energyUj)
            << serial[i].label;
        EXPECT_EQ(serial[i].digest, parallel[i].digest)
            << serial[i].label;
        EXPECT_EQ(serial[i].cfg.numNpus(), parallel[i].cfg.numNpus());
    }
}

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    const ExploreSpec spec = representativeSpec();
    const auto serial = exploreDesignSpace(spec, 1);
    // The spec covers the setSplits and all-to-all branches.
    bool has_split = false, has_a2a = false;
    for (const auto &r : serial) {
        has_split |= r.label.find("/8ch") != std::string::npos;
        has_a2a |= r.label.rfind("a2a-", 0) == 0;
    }
    EXPECT_TRUE(has_split);
    EXPECT_TRUE(has_a2a);

    for (int jobs : {2, 4, 8}) {
        const auto parallel = exploreDesignSpace(spec, jobs);
        expectBitIdentical(serial, parallel);
    }
}

TEST(Sweep, ParallelMatchesSerialForAllToAllCollective)
{
    ExploreSpec spec = representativeSpec();
    spec.kind = CollectiveKind::AllToAll;
    expectBitIdentical(exploreDesignSpace(spec, 1),
                       exploreDesignSpace(spec, 4));
}

/**
 * Distinct threads that run parallelFor(jobs, count, ...). Each index
 * spins (boundedly) until @p expect indices have started, so the first
 * @p expect indices land on @p expect different workers when that many
 * exist, and no worker finishes early enough to take two of them.
 */
std::size_t
workersSeen(int jobs, std::size_t count, std::size_t expect)
{
    std::atomic<std::size_t> started{0};
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallelFor(jobs, count, [&](std::size_t) {
        started.fetch_add(1);
        for (long spin = 0; started.load() < expect && spin < 100000000;
             ++spin) {
            std::this_thread::yield();
        }
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    return ids.size();
}

TEST(Sweep, JobsZeroMeansHardwareThreads)
{
    EXPECT_GE(hardwareThreads(), 1);
    // jobs=0 runs on every hardware thread (at most 8 are checked).
    const std::size_t hw = std::min(std::size_t(hardwareThreads()),
                                    std::size_t(8));
    EXPECT_EQ(workersSeen(0, hw, hw), hw);
    EXPECT_EQ(workersSeen(4, 8, 4), 4u);
}

TEST(Sweep, EvaluateFillsCandidatesInPlace)
{
    ExploreSpec spec = representativeSpec();
    auto candidates = enumerateCandidates(spec);
    ASSERT_FALSE(candidates.empty());
    evaluateCandidates(candidates, spec.kind, spec.bytes, 2);
    for (const auto &r : candidates) {
        EXPECT_GT(r.commTime, 0u) << r.label;
        EXPECT_GT(r.energyUj, 0.0) << r.label;
    }
}

TEST(Sweep, BestDesignIdenticalAcrossJobCounts)
{
    const ExploreSpec spec = representativeSpec();
    const CandidateResult serial = bestDesign(spec, 1);
    const CandidateResult parallel = bestDesign(spec, 4);
    EXPECT_EQ(serial.label, parallel.label);
    EXPECT_EQ(serial.commTime, parallel.commTime);
    EXPECT_EQ(serial.energyUj, parallel.energyUj);
}

TEST(Sweep, DigestIdenticalSerialVsFourJobs)
{
    // The determinism auditor's headline property: a torus all-reduce
    // sweep retires the exact same event stream whether the candidates
    // run serially or on four workers.
    ExploreSpec spec;
    spec.modules = 8;
    spec.localDims = {2};
    spec.bytes = 64 * KiB;
    spec.kind = CollectiveKind::AllReduce;

    auto a = enumerateCandidates(spec);
    auto b = a;
    evaluateCandidates(a, spec.kind, spec.bytes, 1);
    evaluateCandidates(b, spec.kind, spec.bytes, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(a[i].digest, 0u) << a[i].label;
        EXPECT_EQ(a[i].digest, b[i].digest) << a[i].label;
    }
}

TEST(Sweep, DuplicateLocalDimsAreDedupedInEnumeration)
{
    ExploreSpec base = representativeSpec();
    base.localDims = {2};
    ExploreSpec dup = base;
    dup.localDims = {2, 2, 2};

    const auto a = enumerateCandidates(base);
    const auto b = enumerateCandidates(dup);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].label, b[i].label);
}

TEST(Sweep, EnumerationHasNoDuplicateLabels)
{
    ExploreSpec spec = representativeSpec();
    // Unit and repeated factors that used to multiply out to the same
    // platform several times over.
    spec.localDims = {1, 1, 2, 2, 4, 16};
    const auto candidates = enumerateCandidates(spec);
    std::set<std::string> labels;
    for (const auto &r : candidates)
        EXPECT_TRUE(labels.insert(r.label).second)
            << "duplicate candidate " << r.label;
}

} // namespace
} // namespace astra

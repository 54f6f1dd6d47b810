#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/parallel_for.hh"

namespace astra
{
namespace
{

TEST(ParallelFor, HardwareThreadsIsAtLeastOne)
{
    EXPECT_GE(hardwareThreads(), 1);
}

TEST(ParallelFor, WorkerCountIsTheJobBudgetCappedByTheCount)
{
    EXPECT_EQ(workerCount(8, 4), 4u);
    EXPECT_EQ(workerCount(2, 10), 2u);
    EXPECT_EQ(workerCount(3, 0), 0u);
    const auto hw = std::size_t(hardwareThreads());
    EXPECT_EQ(workerCount(0, hw + 5), hw);
    EXPECT_EQ(workerCount(-1, 1), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    // {jobs, count}; the last pair has more jobs than indices.
    for (auto [jobs, count] : {std::pair<int, std::size_t>{1, 257},
                               {2, 257},
                               {4, 257},
                               {8, 257},
                               {8, 3}}) {
        std::vector<std::atomic<int>> hits(count);
        parallelFor(jobs, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs=" << jobs << " count=" << count;
    }
}

TEST(ParallelFor, SerialAndParallelProduceIdenticalOutput)
{
    auto compute = [](int jobs) {
        std::vector<std::uint64_t> out(1000);
        parallelFor(jobs, out.size(),
                    [&](std::size_t i) { out[i] = i * i + 7; });
        return out;
    };
    EXPECT_EQ(compute(1), compute(4));
}

TEST(ParallelFor, ZeroCountIsANoop)
{
    bool ran = false;
    parallelFor(4, 0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(parallelFor(4, 100,
                             [](std::size_t i) {
                                 if (i == 42) // deliberate: tests rethrow
                                     throw std::runtime_error("boom"); // astra-lint: allow(no-throw)
                             }),
                 std::runtime_error);
}

} // namespace
} // namespace astra

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"

namespace astra
{
namespace
{

TEST(ThreadPool, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
    pool.submit([&] { ran.fetch_add(1); });
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
}

// The pool's destructor drains the queue before the captured counter
// dies; that drain is exactly what this test proves.
TEST(ThreadPool, DestructorDrainsOutstandingJobs)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        // No wait(): the destructor must finish the queue.
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, WaitRethrowsFirstJobException)
{
    ThreadPool pool(2);
    // Deliberately throwing job: the test proves wait() rethrows.
    pool.submit([] {
        throw std::runtime_error("job failed"); // astra-lint: allow(no-throw)
    });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed; the pool stays usable.
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

// A worker exception must be captured on the worker and rethrown by
// wait() — never allowed to escape the worker thread, where it would
// call std::terminate. The drain path has no wait() left to rethrow
// on, so surviving the scope exit IS the assertion.
TEST(ThreadPool, DestructorDrainsThrowingJobsWithoutTerminate)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 20; ++i) {
            pool.submit([&] {
                ran.fetch_add(1);
                if (ran.load() % 3 == 0) // deliberate: tests containment
                    throw std::runtime_error("drain boom"); // astra-lint: allow(no-throw)
            });
        }
        // No wait(): the destructor must drain the queue, capturing
        // (not terminating on) every job exception.
    }
    EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, EveryJobRunsEvenWhenEarlierJobsThrow)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&, i] {
            ran.fetch_add(1);
            if (i % 10 == 0) // deliberate: tests rethrow + continuation
                throw std::runtime_error("boom"); // astra-lint: allow(no-throw)
        });
    }
    // The first captured exception surfaces; the rest of the queue
    // still runs to completion (workers never die with the job).
    EXPECT_THROW(pool.wait(), std::runtime_error);
    pool.wait(); // error consumed above; pool idle and healthy
    EXPECT_EQ(ran.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 4, 8}) {
        std::vector<std::atomic<int>> hits(257);
        parallelFor(jobs, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
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

#include "common/parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace astra
{

int
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
parallelFor(int jobs, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    const int hw = hardwareThreads();
    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(jobs <= 0 ? hw : jobs), count);
    if (workers == 0)
        return;
    // More runnable workers than hardware threads context-switch
    // against each other, so a "parallel" run can come out slower than
    // serial. --jobs is user-controlled: flag it, don't fail.
    if (workers > static_cast<std::size_t>(hw)) {
        warn("fan-out to %zu workers on %d hardware thread(s): expect "
             "oversubscription, not speedup",
             workers, hw);
    }

    // Declared before the threads: a spawn failure unwinds through the
    // jthreads' destructor-join while these are still alive.
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    auto work = [&](std::size_t w) {
        try {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1)) {
                fn(i);
            }
        } catch (...) {
            errors[w] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> threads;
        threads.reserve(workers - 1);
        for (std::size_t w = 1; w < workers; ++w)
            threads.emplace_back(work, w);
        work(0);
    }
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace astra

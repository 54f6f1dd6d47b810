#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"

namespace astra
{

int
ThreadPool::defaultThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreads();
    // Workers block on a condition variable between jobs (no spinning),
    // so oversubscription does not burn cycles while idle — but with
    // more runnable workers than hardware threads the active jobs
    // context-switch against each other and a "parallel" run can come
    // out *slower* than serial. That is a caller mistake worth
    // flagging, not failing: --jobs is user-controlled.
    if (threads > defaultThreads()) {
        warn("thread pool created with %d workers on %d hardware "
             "thread(s): expect oversubscription, not speedup",
             threads, defaultThreads());
    }
    _workers.reserve(static_cast<std::size_t>(threads));
    try {
        for (int i = 0; i < threads; ++i)
            _workers.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // Thread spawn failed partway (std::system_error under resource
        // exhaustion). The workers that DID start must be stopped and
        // joined before the rethrow destroys _workers — a joinable
        // std::thread's destructor calls std::terminate.
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _stop = true;
        }
        _workCv.notify_all();
        for (std::thread &w : _workers)
            w.join();
        // Rethrow the original system_error: the caller's report keeps
        // the real spawn-failure context.
        throw; // astra-lint: allow(no-throw)
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _workCv.notify_all();
    for (std::thread &w : _workers)
        w.join();
    // Every worker is joined, so _firstError needs no lock. A job that
    // threw during the destructor drain (after the last wait()) has no
    // thread left to rethrow on; surfacing it beats silent loss.
    if (_firstError)
        warn("thread pool destroyed with an unreported job exception");
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _jobs.push_back(std::move(job));
    }
    _workCv.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _idleCv.wait(lock, [this] { return _jobs.empty() && _inFlight == 0; });
    if (_firstError) {
        std::exception_ptr e = _firstError;
        _firstError = nullptr;
        std::rethrow_exception(e);
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    while (true) {
        _workCv.wait(lock, [this] { return _stop || !_jobs.empty(); });
        if (_jobs.empty()) {
            // _stop and drained: exit.
            return;
        }
        std::function<void()> job = std::move(_jobs.front());
        _jobs.pop_front();
        ++_inFlight;
        lock.unlock();

        std::exception_ptr error;
        try {
            job();
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        if (error && !_firstError)
            _firstError = error;
        --_inFlight;
        if (_jobs.empty() && _inFlight == 0)
            _idleCv.notify_all();
    }
}

// pool.wait() joins every worker before this frame returns, so the
// by-reference captures below cannot dangle or race past the call.
void
parallelFor(int jobs, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    if (jobs <= 0)
        jobs = ThreadPool::defaultThreads();
    jobs = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs), count));
    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    ThreadPool pool(jobs);
    for (int w = 0; w < jobs; ++w) {
        pool.submit([&] {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1)) {
                fn(i);
            }
        });
    }
    pool.wait();
}

} // namespace astra

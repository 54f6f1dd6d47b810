// Negative fixture for signal-unsafe: a conforming handler does
// nothing but a lock-free atomic store — the one portable
// async-signal-safe operation — and the real work happens later, in
// untagged code at an event-loop boundary, where allocation and
// locking are perfectly legal.

std::atomic<int> g_interrupt_flag{0};

// astra-lint: signal-handler
extern "C" void
onSignalOk(int)
{
    g_interrupt_flag.store(1, std::memory_order_relaxed);
}

void
drainAtEventBoundary()
{
    if (g_interrupt_flag.load(std::memory_order_relaxed) != 0) {
        // Untagged function: the signal-unsafe rule has no opinion.
        auto work = std::make_unique<int>(42);
        (void)work;
    }
}

// Positive fixture for signal-unsafe: a function whose head carries
// the `astra-lint: signal-handler` mark may run between any two
// instructions of the interrupted thread, so allocating, locking or
// doing IO inside it or anything it calls is a finding — malloc holds
// the heap lock, the mutex may already be held by this very thread,
// and stdio buffers are in an unknown state.

std::atomic<int> g_pending{0};
std::mutex g_handler_mutex;

// astra-lint: signal-handler
extern "C" void
onSignalBad(int)
{
    char *buf = static_cast<char *>(malloc(64));       // FIRE(signal-unsafe)
    std::lock_guard<std::mutex> hold(g_handler_mutex); // FIRE(signal-unsafe)
    std::printf("interrupted\n");                      // FIRE(signal-unsafe)
    free(buf);                                         // FIRE(signal-unsafe)
    g_pending.store(1);
}

void
logStatus(int code)
{
    printf("status %d", code);
}

void
noteInterrupt(int code)
{
    logStatus(code);
}

// The handler itself is clean, but its callee chain reaches printf:
// reported once, at the call that starts the chain.
// astra-lint: signal-handler
extern "C" void
onSignalChained(int sig)
{
    noteInterrupt(sig); // FIRE(signal-unsafe)
}

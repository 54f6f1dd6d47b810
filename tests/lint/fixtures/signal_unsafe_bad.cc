// Positive fixture for signal-unsafe: a function whose head follows
// the `astra-lint: signal-handler` mark may run between any two
// instructions of the interrupted thread, so allocating, locking,
// doing IO or calling anything but a std::atomic member operation in
// its body is a finding — malloc holds the heap lock, the mutex may
// already be held by this very thread, and stdio is in an unknown state.

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

// No unsafe token of its own, but the call's target is out of sight
// (here it reaches printf), so the call itself is the finding.
// astra-lint: signal-handler
extern "C" void
onSignalChained(int sig)
{
    noteInterrupt(sig); // FIRE(signal-unsafe)
}

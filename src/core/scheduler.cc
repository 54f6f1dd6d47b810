#include "core/scheduler.hh"

#include <algorithm>
#include <limits>

#include "common/check.hh"
#include "core/sys.hh"

namespace astra
{

Scheduler::Scheduler(Sys &sys, const SimConfig &cfg)
    : _sys(sys), _policy(cfg.schedulingPolicy),
      _threshold(cfg.dispatchThreshold), _width(cfg.dispatchWidth),
      _concurrency(cfg.lsqConcurrency),
      _lsqDims(std::size_t(sys.topology().numDims())), _lsqChannels(1)
{
    for (int d = 0; d < sys.topology().numDims(); ++d) {
        _lsqChannels = std::max(
            _lsqChannels, std::size_t(sys.topology().dim(d).channels));
    }
}

Scheduler::LsqKey
Scheduler::lsqKeyAt(std::size_t i) const
{
    return LsqKey{int(i / (_lsqDims * _lsqChannels)),
                  int(i / _lsqChannels % _lsqDims),
                  int(i % _lsqChannels)};
}

Scheduler::LsqKey
Scheduler::keyFor(const Stream *s) const
{
    return LsqKey{s->phaseIndex(), s->phase().dim, s->phase().channel};
}

void
Scheduler::submit(Stream *stream)
{
    stream->submittedAt = _sys.now();
    switch (_policy) {
      case SchedulingPolicy::FIFO:
        _ready.push_back(stream);
        break;
      case SchedulingPolicy::LIFO:
        _ready.push_front(stream);
        break;
      case SchedulingPolicy::LayerPriority: {
        // Earliest layer first (Sec. III-E); FIFO among equals.
        // Collectives without a layer tag sort last.
        auto key = [](const Stream *s) {
            const LayerId l = s->handle()->layer;
            return l < 0 ? std::numeric_limits<LayerId>::max() : l;
        };
        auto pos = std::upper_bound(
            _ready.begin(), _ready.end(), stream,
            [&key](const Stream *a, const Stream *b) {
                return key(a) < key(b);
            });
        _ready.insert(pos, stream);
        break;
      }
    }
    dispatch();
    traceReadyDepth();
}

void
Scheduler::dispatch()
{
    // The dispatcher rule of Sec. IV-B: when fewer than T chunks are
    // still in their first phase, issue P chunks from the ready queue.
    if (_phase0Active >= _threshold)
        return;
    int issued = 0;
    while (!_ready.empty() && issued < _width) {
        Stream *s = _ready.front();
        _ready.pop_front();
        ++issued;
        release(s);
    }
}

void
Scheduler::release(Stream *s)
{
    ++_phase0Active;
    ++_inFlight;
    const Tick now = _sys.now();
    _sys.nodeStats().recordDelay(NodeStats::Delay::Queue, 0,
                                 s->handle()->layer,
                                 static_cast<double>(now - s->submittedAt));
    s->enterPhase(0, now);
    enqueue(s);
}

void
Scheduler::traceReadyDepth()
{
    // Observer-only: one counter sample per depth change makes the
    // dispatcher's backlog visible as a Perfetto graph lane.
    if (TraceRecorder *tr = _sys.trace()) {
        tr->counter(_sys.id(), "ready_queue.depth", _sys.now(),
                    static_cast<double>(_ready.size()));
    }
}

void
Scheduler::enqueue(Stream *s)
{
    const LsqKey key = keyFor(s);
    const std::size_t slot = lsqIndex(key);
    if (slot >= _lsqs.size()) {
        // A plan deeper than any seen: add every LSQ of its phases.
        _lsqs.resize(std::size_t(key.phase + 1) * _lsqDims * _lsqChannels);
    }
    Lsq &q = _lsqs[slot];
    auto pos = std::lower_bound(
        q.waiting.begin(), q.waiting.end(), s,
        [](const Stream *a, const Stream *b) { return a->id() < b->id(); });
    q.waiting.insert(pos, s);
    pump(key);
    // Deadlock guard (see file comment): if peers are already sending
    // for this phase, run the chunk regardless of the concurrency cap.
    if (!s->phaseStarted() && _sys.hasBufferedMessages(s->id(), key.phase))
        promoteIfWaiting(s, key.phase);
}

void
Scheduler::pump(const LsqKey &key)
{
    // Re-index every round: admit() starts the phase algorithm, so no
    // reference into the table is held across it.
    const std::size_t slot = lsqIndex(key);
    while (_lsqs[slot].active < _concurrency &&
           !_lsqs[slot].waiting.empty()) {
        std::vector<Stream *> &waiting = _lsqs[slot].waiting;
        Stream *s = waiting.front();
        waiting.erase(waiting.begin());
        admit(s, key);
    }
}

void
Scheduler::admit(Stream *s, const LsqKey &key)
{
    Lsq &q = _lsqs[lsqIndex(key)];
    ++q.active;
    const Tick now = _sys.now();
    _sys.nodeStats().recordDelay(
        NodeStats::Delay::Queue, key.phase + 1, s->handle()->layer,
        static_cast<double>(now - s->enqueuedAt[std::size_t(key.phase)]));
    _sys.startStreamPhase(*s);
}

void
Scheduler::promoteIfWaiting(Stream *stream, int p)
{
    if (stream->phaseIndex() == -1 && p == 0) {
        // Peers are already executing this chunk's first phase but our
        // dispatcher has not released it (T/P throttling): release it
        // now, or the cluster can deadlock on the dispatcher itself.
        auto pos = std::find(_ready.begin(), _ready.end(), stream);
        if (pos == _ready.end())
            return;
        _ready.erase(pos);
        release(stream);
        traceReadyDepth();
        return;
    }
    if (stream->phaseIndex() != p || stream->phaseStarted())
        return;
    const LsqKey key = keyFor(stream);
    const std::size_t slot = lsqIndex(key);
    if (slot >= _lsqs.size())
        return;
    auto &waiting = _lsqs[slot].waiting;
    auto pos = std::find(waiting.begin(), waiting.end(), stream);
    if (pos == waiting.end())
        return;
    waiting.erase(pos);
    admit(stream, key);
}

void
Scheduler::onPhaseFinished(Stream *stream, bool stream_complete)
{
    const LsqKey key = keyFor(stream);
    const int p = key.phase;
    Lsq &q = _lsqs[lsqIndex(key)];
    ASTRA_CHECK(q.active > 0,
                "LSQ accounting underflow on npu %d: phase %d "
                "(dim %d channel %d) of stream %llu finished with "
                "active=%d at tick %llu",
                int(_sys.id()), p, key.dim, key.channel,
                static_cast<unsigned long long>(stream->id()), q.active,
                static_cast<unsigned long long>(_sys.now()));
    --q.active;
    if (p == 0) {
        --_phase0Active;
        const std::size_t depth = _ready.size();
        dispatch();
        if (_ready.size() != depth)
            traceReadyDepth();
    }
    if (stream_complete)
        --_inFlight;
    pump(key);
}

} // namespace astra

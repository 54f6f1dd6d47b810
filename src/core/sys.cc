#include "core/sys.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "fault/fault.hh"

namespace astra
{

Sys::Sys(NodeId id, const Topology &topo, NetworkApi &net,
         const SimConfig &cfg)
    : _id(id), _topo(topo), _net(net), _cfg(cfg), _scheduler(*this, cfg),
      _endpointDelay(cfg.endpointDelay)
{
    if (id < 0 || id >= topo.numNodes())
        fatal("Sys node id %d out of range", id);
    _net.setReceiver(id, [this](const Message &m) { onMessage(m); });
}

std::shared_ptr<CollectiveHandle>
Sys::issueCollective(const CollectiveRequest &req)
{
    if (req.kind == CollectiveKind::None)
        fatal("cannot issue CollectiveKind::None");
    if (req.bytes == 0)
        fatal("cannot issue a zero-byte collective");

    std::vector<int> dims = req.dims;
    if (dims.empty()) {
        for (int d = 0; d < _topo.numDims(); ++d)
            dims.push_back(d);
    }

    // The plan and the group are the set's: every chunk reads them
    // from the handle.
    auto handle = std::make_shared<CollectiveHandle>(
        buildPhasePlan(_topo, dims, req.kind, _cfg.algorithm),
        GroupInfo(_topo, _id, dims));

    int splits = req.setSplits > 0 ? req.setSplits
                                   : _cfg.preferredSetSplits;
    // Never create zero-byte chunks.
    splits = static_cast<int>(
        std::min<Bytes>(Bytes(splits), std::max<Bytes>(1, req.bytes)));

    handle->kind = req.kind;
    handle->totalBytes = req.bytes;
    handle->layer = req.layer;
    handle->issuedAt = now();
    handle->remainingChunks = splits;
    handle->onComplete = req.onComplete;

    const Bytes base = req.bytes / Bytes(splits);
    const Bytes rem = req.bytes % Bytes(splits);

    _stats.inc("issued.sets");
    _stats.inc("issued.chunks", splits);
    _stats.inc("issued.bytes", static_cast<double>(req.bytes));

    for (int i = 0; i < splits; ++i) {
        const Bytes chunk_bytes = base + (Bytes(i) < rem ? 1 : 0);
        const StreamId sid = _nextStreamId++;
        if (handle->plan.empty()) {
            // Single-participant group: nothing to communicate; the
            // chunk completes on the next event boundary.
            eventQueue().scheduleAfter(
                0, [this, handle] { completeChunk(*handle); });
            continue;
        }
        auto stream =
            std::make_unique<Stream>(*this, sid, chunk_bytes, handle);
        Stream *raw = stream.get();
        insertStream(sid, std::move(stream));
        _scheduler.submit(raw);
    }
    return handle;
}

void
Sys::sendMessage(Stream &stream, int dst_rank, int channel, Bytes bytes,
                 int step, std::shared_ptr<const ChunkPayload> payload)
{
    const PhaseFacts &ph = stream.phase();
    const NodeId dst = _topo.peer(_id, ph.dim, dst_rank);

    Message msg;
    msg.src = _id;
    msg.dst = dst;
    msg.bytes = bytes;
    msg.hint = RouteHint{ph.dim, channel};
    msg.tag = MessageTag{stream.id(), stream.phaseIndex(), step, ph.rank};
    msg.payload = std::move(payload);

    hotCounter(SentMessages) += 1;
    hotCounter(SentBytes) += static_cast<double>(bytes);
    _sentBytesByDim.at(_stats, std::size_t(ph.dim), [&] {
        return "sent.bytes." + _topo.dim(ph.dim).name;
    }) += static_cast<double>(bytes);
    _net.send(std::move(msg));
}

void
Sys::sendP2P(NodeId dst, Bytes bytes, std::uint64_t tag)
{
    if (dst < 0 || dst >= _topo.numNodes())
        fatal("sendP2P: destination %d out of range", dst);
    if (bytes == 0)
        fatal("sendP2P: zero-byte transfer");
    Message msg;
    msg.src = _id;
    msg.dst = dst;
    msg.bytes = bytes;
    // Negative dim marks a point-to-point transfer; the channel seed
    // spreads concurrent transfers over rings.
    msg.hint = RouteHint{-1, static_cast<int>(tag & 0xffff)};
    msg.tag.stream = tag;
    msg.tag.phase = -1;
    hotCounter(SentMessages) += 1;
    hotCounter(SentBytes) += static_cast<double>(bytes);
    hotCounter(SentBytesP2P) += static_cast<double>(bytes);
    _net.send(std::move(msg));
}

void
Sys::expectP2P(NodeId src, std::uint64_t tag, std::function<void()> cb)
{
    const auto key = std::make_pair(src, tag);
    auto arrived = _p2pArrived.find(key);
    if (arrived != _p2pArrived.end()) {
        if (--arrived->second == 0)
            _p2pArrived.erase(arrived);
        cb();
        return;
    }
    if (!_p2pExpected.emplace(key, std::move(cb)).second)
        panic("duplicate P2P expectation for (src=%d, tag=%llu)", src,
              static_cast<unsigned long long>(tag));
}

void
Sys::setFaults(const FaultManager *faults,
               std::function<void(const FailureRecord &)> sink)
{
    _faults = faults;
    _failureSink = std::move(sink);
    // The straggler stretch depends on the fault plan alone.
    const double f = computeSlowdown();
    _endpointDelay =
        f == 1.0 ? _cfg.endpointDelay
                 : ceilTicks(static_cast<double>(_cfg.endpointDelay) * f,
                             "straggler endpoint delay");
}

void
Sys::onMessageLost(const Message &msg, int link)
{
    const int max_retries = _faults ? _faults->maxRetries() : 0;

    // Note the timeout on the live chunk so the legal-transition table
    // vets it: a loss racing a finalized chunk dies under validation.
    Stream *s = msg.tag.phase >= 0 ? findStream(msg.tag.stream) : nullptr;
    if (s)
        s->data().noteTimeout();

    if (msg.attempt >= max_retries) {
        _stats.inc("fault.retries_exhausted");
        FailureRecord rec;
        rec.node = _id;
        rec.link = link;
        rec.stream = msg.tag.stream;
        rec.tick = now();
        rec.retries = msg.attempt;
        rec.reason = strprintf(
            "send %d -> %d (%llu B) lost on link %d; %d attempt(s) "
            "exhausted",
            _id, msg.dst, static_cast<unsigned long long>(msg.bytes),
            link, msg.attempt + 1);
        if (_failureSink)
            _failureSink(rec);
        return;
    }

    if (s)
        s->data().noteRetry();
    _stats.inc("fault.retries");
    // Bounded exponential backoff: retryTimeout * 2^attempt, the shift
    // capped so a pathological retry budget cannot overflow the Tick.
    const Tick base = _faults ? _faults->retryTimeout() : Tick(1);
    const int shift = std::min<std::int32_t>(msg.attempt, 20);
    const Tick wait = base << shift;
    Message again = msg;
    again.attempt += 1;
    eventQueue().scheduleAfter(wait, [this, again]() mutable {
        _net.send(std::move(again));
    });
}

int
Sys::pickChannel(int dim, int channels, StreamId id) const
{
    if (_faults)
        return _faults->pickChannel(dim, channels, id);
    return static_cast<int>(id % StreamId(channels));
}

double
Sys::computeSlowdown() const
{
    return _faults ? _faults->computeSlowdown(_id) : 1.0;
}

void
Sys::onP2PMessage(const Message &msg)
{
    // Endpoint processing cost, then match the expectation.
    eventQueue().scheduleAfter(_endpointDelay,
                               P2PArrival{this, msg.src, msg.tag.stream});
}

void
Sys::matchP2P(NodeId src, std::uint64_t tag)
{
    const auto key = std::make_pair(src, tag);
    auto it = _p2pExpected.find(key);
    if (it == _p2pExpected.end()) {
        ++_p2pArrived[key];
        return;
    }
    auto cb = std::move(it->second);
    _p2pExpected.erase(it);
    cb();
}

Stream *
Sys::findStream(StreamId sid) const
{
    if (sid < _streamBase || sid - _streamBase >= _streams.size())
        return nullptr;
    return _streams[std::size_t(sid - _streamBase)].get();
}

void
Sys::insertStream(StreamId sid, std::unique_ptr<Stream> stream)
{
    // Ids only grow, so a new stream lands at (or past) the back; the
    // slots of skipped ids (single-participant chunks) stay null.
    if (_streams.empty())
        _streamBase = sid;
    _streams.resize(std::size_t(sid - _streamBase) + 1);
    _streams.back() = std::move(stream);
    ++_liveStreams;
}

void
Sys::eraseStream(StreamId sid)
{
    _streams[std::size_t(sid - _streamBase)].reset();
    --_liveStreams;
    // Trim finished ids off the front so the table spans the live
    // window only: all of it once no stream is live, else when the
    // finished prefix is half the table (each slot moves O(1) times).
    while (_streamHead < _streams.size() && !_streams[_streamHead])
        ++_streamHead;
    if (_streamHead == _streams.size()) {
        _streams.clear();
        _streamHead = 0;
    } else if (2 * _streamHead >= _streams.size()) {
        _streams.erase(_streams.begin(),
                       _streams.begin() + std::ptrdiff_t(_streamHead));
        _streamBase += _streamHead;
        _streamHead = 0;
    }
}

bool
Sys::hasBufferedMessages(StreamId sid, int phase) const
{
    return _unmatched.count({sid, phase}) > 0;
}

void
Sys::onMessage(const Message &msg)
{
    if (msg.tag.phase < 0) {
        onP2PMessage(msg);
        return;
    }
    const StreamId sid = msg.tag.stream;
    const int phase = msg.tag.phase;

    if (Stream *found = findStream(sid)) {
        Stream &s = *found;
        if (s.phaseIndex() == phase && s.phaseStarted()) {
            s.algorithm()->onMessage(msg);
            return;
        }
        if (s.phaseIndex() > phase) {
            panic("node %d: message for past phase %d of stream %llu "
                  "(now in %d)",
                  _id, phase, static_cast<unsigned long long>(sid),
                  s.phaseIndex());
        }
        _unmatched[{sid, phase}].push_back(msg);
        if (s.phaseIndex() == phase ||
            (s.phaseIndex() == -1 && phase == 0))
            _scheduler.promoteIfWaiting(&s, phase);
        return;
    }
    // The peer is ahead of us: it issued (or advanced) a collective we
    // have not reached yet. Buffer until our workload catches up.
    _unmatched[{sid, phase}].push_back(msg);
}

void
Sys::startStreamPhase(Stream &stream)
{
    stream.startPhase(now());
    drainUnmatched(stream);
}

void
Sys::drainUnmatched(Stream &stream)
{
    auto it = _unmatched.find({stream.id(), stream.phaseIndex()});
    if (it == _unmatched.end())
        return;
    std::vector<Message> msgs = std::move(it->second);
    _unmatched.erase(it);
    for (const Message &m : msgs) {
        if (!stream.phaseStarted())
            panic("draining messages into an unstarted phase");
        stream.algorithm()->onMessage(m);
    }
}

void
Sys::streamPhaseDone(Stream &stream)
{
    ++_progress; // watchdog heartbeat: a phase completed on this node
    const int p = stream.phaseIndex();
    const Tick t = now();
    stream.finishedAt[std::size_t(p)] = t;
    _networkDelay.record(
        _stats, p + 1, stream.handle()->layer,
        static_cast<double>(t - stream.startedAt[std::size_t(p)]));
    if (_trace) {
        const PhaseDesc &ph = stream.phaseDesc();
        const char *op = toString(ph.op);
        _trace->span(_id, 1 + p, "phase",
                     strprintf("%s(%s) chunk %llu", op,
                               _topo.dim(ph.dim).name.c_str(),
                               static_cast<unsigned long long>(
                                   stream.id())),
                     stream.startedAt[std::size_t(p)], t);
    }

    // Defer the transition so the algorithm's stack unwinds before the
    // algorithm object is destroyed.
    const StreamId sid = stream.id();
    eventQueue().schedule(t, [this, sid] { advanceStream(sid); },
                          /*priority=*/10);
}

void
Sys::advanceStream(StreamId sid)
{
    Stream *found = findStream(sid);
    if (!found)
        panic("advanceStream: stream %llu vanished",
              static_cast<unsigned long long>(sid));
    Stream &s = *found;
    const int p = s.phaseIndex();
    const bool last = (std::size_t(p) + 1 == s.plan().size());
    s.clearAlgorithm();
    _scheduler.onPhaseFinished(&s, last);
    if (!last) {
        s.enterPhase(p + 1, now());
        _scheduler.enqueue(&s);
    } else {
        finishStream(s);
    }
}

void
Sys::finishStream(Stream &stream)
{
    ++_progress; // watchdog heartbeat: a whole stream completed

    // Built-in semantic post-conditions (Fig. 4): a schedule that
    // merely *timed* like a collective but moved the wrong data dies
    // here, on every run, not just under test.
    const ChunkState &d = stream.data();
    switch (stream.kind()) {
      case CollectiveKind::AllReduce:
        if (!d.allReduced())
            panic("all-reduce post-condition violated (stream %llu)",
                  static_cast<unsigned long long>(stream.id()));
        break;
      case CollectiveKind::ReduceScatter:
        for (int e = d.current().lo; e < d.current().hi; ++e) {
            if (!d.valid(e) || !d.fullyReduced(e))
                panic("reduce-scatter post-condition violated");
        }
        break;
      case CollectiveKind::AllGather:
        if (!d.allValid())
            panic("all-gather post-condition violated");
        break;
      case CollectiveKind::AllToAll:
        if (!d.allToAllComplete())
            panic("all-to-all post-condition violated");
        break;
      case CollectiveKind::None:
        break;
    }

    // Seal the chunk: under validation any later mutation (a stray
    // in-flight payload, a double finish) is an illegal FSM transition.
    if (stream.kind() != CollectiveKind::None)
        stream.data().finalize();

    // No protocol leftovers may exist for this stream.
    auto lo = _unmatched.lower_bound({stream.id(), 0});
    if (lo != _unmatched.end() && lo->first.first == stream.id())
        panic("stream %llu completed with unconsumed messages",
              static_cast<unsigned long long>(stream.id()));

    if (_inspector)
        _inspector(stream);

    auto handle = stream.handle();

    // End-to-end chunk latency (submit -> all phases complete), overall
    // and per collective kind, plus the data-movement count.
    const double latency =
        static_cast<double>(now() - stream.submittedAt);
    const CollectiveKind kind = stream.kind();
    _chunkLatency.at(_stats, 0, [] {
        return std::string("chunk.latency");
    }).record(latency);
    _chunkLatency.at(_stats, 1 + std::size_t(kind), [kind] {
        return strprintf("chunk.latency.%s", toString(kind));
    }).record(latency);
    hotCounter(ChunkPayloads) += static_cast<double>(d.payloadsApplied());

    // Erase before firing callbacks: onComplete may issue collectives.
    eraseStream(stream.id());
    completeChunk(*handle);
}

void
Sys::completeChunk(CollectiveHandle &handle)
{
    hotCounter(CompletedChunks) += 1;
    if (--handle.remainingChunks > 0)
        return;
    handle.completedAt = now();
    hotCounter(CompletedSets) += 1;
    if (handle.onComplete) {
        // The callback usually captures the handle; clear it before
        // firing or the shared_ptr cycle outlives completion.
        auto cb = std::move(handle.onComplete);
        handle.onComplete = nullptr;
        cb();
    }
}

} // namespace astra

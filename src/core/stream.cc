#include "core/stream.hh"

#include "common/logging.hh"
#include "core/sys.hh"

namespace astra
{

Stream::Stream(Sys &sys, StreamId id, Bytes chunk_bytes,
               std::shared_ptr<CollectiveHandle> handle)
    : _sys(sys), _id(id), _handle(std::move(handle)),
      _data(group().size(), group().myRank(), chunk_bytes, kind())
{
    enqueuedAt.assign(plan().size(), kTickInvalid);
    startedAt.assign(plan().size(), kTickInvalid);
    finishedAt.assign(plan().size(), kTickInvalid);
}

const PhaseDesc &
Stream::phaseDesc() const
{
    if (_phaseIndex < 0 || std::size_t(_phaseIndex) >= plan().size())
        panic("stream %llu: no active phase",
              static_cast<unsigned long long>(_id));
    return plan()[std::size_t(_phaseIndex)];
}

void
Stream::send(int dst_rank, int channel, Bytes bytes, int step,
             std::shared_ptr<const ChunkPayload> payload)
{
    _sys.sendMessage(*this, dst_rank, channel, bytes, step,
                     std::move(payload));
}

void
Stream::scheduleAfter(Tick delay, EventCallback fn)
{
    _sys.eventQueue().scheduleAfter(delay, std::move(fn));
}

int
Stream::phaseCoordOfGlobalRank(int global_rank) const
{
    return group().coordOf(global_rank, _facts.dim);
}

void
Stream::phaseDone()
{
    _sys.streamPhaseDone(*this);
}

void
Stream::enterPhase(int p, Tick now)
{
    if (p != _phaseIndex + 1)
        panic("stream %llu: phase jump %d -> %d",
              static_cast<unsigned long long>(_id), _phaseIndex, p);
    _phaseIndex = p;
    const Topology &topo = _sys.topology();
    const int dim = phaseDesc().dim;
    const DimInfo &info = topo.dim(dim);
    // Delegated so the fault layer can re-plan rings around links that
    // are down for the whole run; `id % channels` without faults.
    const int channel = _sys.pickChannel(dim, info.channels, _id);
    _facts = PhaseFacts{
        .dim = dim,
        .groupSize = info.size,
        .rank = topo.rankInGroup(dim, _sys.id()),
        .direction = info.pattern == DimPattern::Ring
                         ? topo.channelDirection(dim, channel)
                         : +1,
        .channel = channel,
        .numChannels = info.channels,
        .entryBytes = phaseEntryBytes(topo, plan(), p, _data.totalBytes()),
        .endpointDelay = _sys.endpointDelay(),
    };
    enqueuedAt[std::size_t(p)] = now;
}

void
Stream::startPhase(Tick now)
{
    if (_alg)
        panic("stream %llu: phase %d already started",
              static_cast<unsigned long long>(_id), _phaseIndex);
    startedAt[std::size_t(_phaseIndex)] = now;
    const DimPattern pattern = _sys.topology().dim(_facts.dim).pattern;
    _alg = makePhaseAlgorithm(pattern, phaseDesc().op, *this);
    _alg->start();
}

} // namespace astra

#include "core/stream.hh"

#include "common/logging.hh"
#include "core/sys.hh"

namespace astra
{

Stream::Stream(Sys &sys, StreamId id, CollectiveKind kind,
               Bytes chunk_bytes, PhasePlan plan, GroupInfo group,
               std::shared_ptr<CollectiveHandle> handle)
    : _sys(sys), _id(id), _kind(kind), _chunkBytes(chunk_bytes),
      _plan(std::move(plan)), _group(std::move(group)),
      _handle(std::move(handle)),
      _data(_group.size(), _group.myRank(), chunk_bytes, kind)
{
    enqueuedAt.assign(_plan.size(), kTickInvalid);
    startedAt.assign(_plan.size(), kTickInvalid);
    finishedAt.assign(_plan.size(), kTickInvalid);
}

const PhaseDesc &
Stream::phaseDesc() const
{
    if (_phase < 0 || std::size_t(_phase) >= _plan.size())
        panic("stream %llu: no active phase",
              static_cast<unsigned long long>(_id));
    return _plan[std::size_t(_phase)];
}

int
Stream::channelFor(int p) const
{
    const PhaseDesc &ph = _plan.at(std::size_t(p));
    const int channels = _sys.topology().dim(ph.dim).channels;
    // Delegated so the fault layer can re-plan rings around links that
    // are down for the whole run; `id % channels` without faults.
    return _sys.pickChannel(ph.dim, channels, _id);
}

int
Stream::groupSize() const
{
    return _sys.topology().dim(phaseDesc().dim).size;
}

int
Stream::myRank() const
{
    return _sys.topology().rankInGroup(phaseDesc().dim, _sys.id());
}

int
Stream::direction() const
{
    const PhaseDesc &ph = phaseDesc();
    const DimInfo &info = _sys.topology().dim(ph.dim);
    if (info.pattern != DimPattern::Ring)
        return +1;
    return _sys.topology().channelDirection(ph.dim, channelFor(_phase));
}

int
Stream::numChannels() const
{
    return _sys.topology().dim(phaseDesc().dim).channels;
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

Tick
Stream::endpointDelay() const
{
    return _sys.scaledEndpointDelay();
}

int
Stream::phaseCoordOfGlobalRank(int global_rank) const
{
    return _group.coordOf(global_rank, phaseDesc().dim);
}

void
Stream::phaseDone()
{
    _sys.streamPhaseDone(*this);
}

void
Stream::enterPhase(int p, Tick now)
{
    if (p != _phase + 1)
        panic("stream %llu: phase jump %d -> %d",
              static_cast<unsigned long long>(_id), _phase, p);
    _phase = p;
    _entryBytes = phaseEntryBytes(_sys.topology(), _plan, p, _chunkBytes);
    enqueuedAt[std::size_t(p)] = now;
}

void
Stream::startPhase(Tick now)
{
    if (_alg)
        panic("stream %llu: phase %d already started",
              static_cast<unsigned long long>(_id), _phase);
    startedAt[std::size_t(_phase)] = now;
    const PhaseDesc &ph = phaseDesc();
    const DimPattern pattern = _sys.topology().dim(ph.dim).pattern;
    _alg = makePhaseAlgorithm(pattern, ph.op, *this);
    _alg->start();
}

} // namespace astra

#include "collective/chunk_state.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"

namespace astra
{

ElemRange
ElemRange::subRange(int parts, int j) const
{
    const int len = length();
    if (parts <= 0 || len % parts != 0)
        panic("range length %d not divisible into %d parts", len, parts);
    if (j < 0 || j >= parts)
        panic("subrange index %d out of [0,%d)", j, parts);
    const int step = len / parts;
    return ElemRange{lo + j * step, lo + (j + 1) * step};
}

ChunkState::ChunkState(int group_size, int my_global_rank,
                       Bytes total_bytes, CollectiveKind kind)
    : _e(group_size), _myRank(my_global_rank), _totalBytes(total_bytes),
      _kind(kind), _validate(validationAtLeast(ValidateLevel::kBasic))
{
    if (group_size < 1)
        panic("chunk group size %d < 1", group_size);
    if (my_global_rank < 0 || my_global_rank >= group_size)
        panic("rank %d out of [0,%d)", my_global_rank, group_size);

    switch (kind) {
      case CollectiveKind::AllReduce:
      case CollectiveKind::ReduceScatter:
        // Start holding a private partial of everything.
        _current = ElemRange{0, _e};
        _contribs.assign(std::size_t(_e), BitVec(std::size_t(_e)));
        _valid.assign(std::size_t(_e), true);
        for (auto &c : _contribs)
            c.set(std::size_t(_myRank));
        break;
      case CollectiveKind::AllGather:
        // Start holding only the own element, fully formed.
        _current = ElemRange{_myRank, _myRank + 1};
        _contribs.assign(std::size_t(_e), BitVec(std::size_t(_e)));
        _valid.assign(std::size_t(_e), false);
        _contribs[std::size_t(_myRank)].set(std::size_t(_myRank));
        _valid[std::size_t(_myRank)] = true;
        break;
      case CollectiveKind::AllToAll:
        _contribs.assign(std::size_t(_e), BitVec(std::size_t(_e)));
        _valid.assign(std::size_t(_e), false);
        _blocks.reserve(std::size_t(_e));
        for (int d = 0; d < _e; ++d)
            _blocks.emplace_back(_myRank, d);
        break;
      case CollectiveKind::None:
        panic("cannot build chunk state for CollectiveKind::None");
    }
}

Bytes
ChunkState::bytesFor(int elems) const
{
    if (elems <= 0)
        return 0;
    return static_cast<Bytes>(
        std::ceil(bytesPerElem() * static_cast<double>(elems)));
}

const BitVec &
ChunkState::contribs(int e) const
{
    if (e < 0 || e >= _e)
        panic("element %d out of [0,%d)", e, _e);
    return _contribs[std::size_t(e)];
}

void
ChunkState::checkOp(ChunkOp op) const
{
    if (_validate)
        validate::chunkTransition(_kind, op, _done, _myRank);
}

void
ChunkState::finalize()
{
    checkOp(ChunkOp::Finalize);
    _done = true;
}

ChunkPayload
ChunkState::makeRangePayload(const ElemRange &range, bool reduce) const
{
    checkOp(ChunkOp::MakePayload);
    ChunkPayload p;
    p.range = range;
    p.reduce = reduce;
    p.contribs.reserve(std::size_t(range.length()));
    for (int e = range.lo; e < range.hi; ++e) {
        if (!_valid[std::size_t(e)]) {
            panic("node rank %d sending invalid element %d", _myRank, e);
        }
        p.contribs.push_back(_contribs[std::size_t(e)]);
    }
    return p;
}

void
ChunkState::applyRangePayload(const ChunkPayload &payload)
{
    checkOp(payload.reduce ? ChunkOp::ApplyReduce
                           : ChunkOp::ApplyInstall);
    const ElemRange &r = payload.range;
    if (r.lo < 0 || r.hi > _e || r.lo >= r.hi)
        panic("bad payload range [%d,%d)", r.lo, r.hi);
    if (static_cast<int>(payload.contribs.size()) != r.length())
        panic("payload contribs size mismatch");
    for (int e = r.lo; e < r.hi; ++e) {
        const BitVec &incoming = payload.contribs[std::size_t(e - r.lo)];
        BitVec &mine = _contribs[std::size_t(e)];
        if (payload.reduce) {
            // Reducing the same partial twice would be numerically
            // wrong in a real system; catch schedule bugs here.
            const bool duplicate = incoming.intersects(mine);
            if (!_valid[std::size_t(e)])
                panic("reducing into invalid element %d", e);
            if (duplicate) {
                panic("duplicate contribution reduced into element %d "
                      "(mine=%s incoming=%s)",
                      e, mine.toString().c_str(),
                      incoming.toString().c_str());
            }
            mine |= incoming;
        } else {
            mine = incoming;
            _valid[std::size_t(e)] = true;
        }
    }
    ++_payloadsApplied;
}

void
ChunkState::restrictValidTo(const ElemRange &keep)
{
    checkOp(ChunkOp::Restrict);
    for (int e = 0; e < _e; ++e) {
        if (!keep.contains(e))
            _valid[std::size_t(e)] = false;
    }
    _current = keep;
}

std::vector<std::vector<std::pair<int, int>>>
ChunkState::takeBlocksByPart(int parts, int keep,
                             const std::function<int(int dst)> &part_of)
{
    checkOp(ChunkOp::TakeBlocks);
    std::vector<std::vector<std::pair<int, int>>> taken(
        static_cast<std::size_t>(parts));
    std::size_t kept = 0;
    for (const auto &b : _blocks) {
        const int part = part_of(b.second);
        if (part < 0 || part >= parts)
            panic("block to %d in part %d of %d", b.second, part, parts);
        if (part == keep)
            _blocks[kept++] = b;
        else
            taken[std::size_t(part)].push_back(b);
    }
    _blocks.resize(kept);
    return taken;
}

void
ChunkState::addBlocks(const std::vector<std::pair<int, int>> &blocks)
{
    checkOp(ChunkOp::AddBlocks);
    _blocks.insert(_blocks.end(), blocks.begin(), blocks.end());
    ++_payloadsApplied;
}

bool
ChunkState::allReduced() const
{
    for (int e = 0; e < _e; ++e) {
        if (!_valid[std::size_t(e)] || !_contribs[std::size_t(e)].all())
            return false;
    }
    return true;
}

bool
ChunkState::allValid() const
{
    for (int e = 0; e < _e; ++e) {
        if (!_valid[std::size_t(e)])
            return false;
    }
    return true;
}

bool
ChunkState::allToAllComplete() const
{
    if (static_cast<int>(_blocks.size()) != _e)
        return false;
    std::vector<bool> seen(std::size_t(_e), false);
    for (const auto &[src, dst] : _blocks) {
        if (dst != _myRank)
            return false;
        if (src < 0 || src >= _e || seen[std::size_t(src)])
            return false;
        seen[std::size_t(src)] = true;
    }
    return true;
}

} // namespace astra

#include "core/group_info.hh"

#include <algorithm>

#include "common/logging.hh"

namespace astra
{

GroupInfo::GroupInfo(const Topology &topo, NodeId node,
                     std::vector<int> dims)
    : _dims(std::move(dims))
{
    // Mixed-radix order must match the canonical phase order so that
    // multi-phase all-gather ranges stay contiguous (see Topology::
    // phaseOrderKey).
    std::sort(_dims.begin(), _dims.end(), [&](int a, int b) {
        return topo.phaseOrderKey(a) < topo.phaseOrderKey(b);
    });
    auto dup = std::adjacent_find(_dims.begin(), _dims.end());
    if (dup != _dims.end())
        fatal("collective group lists dimension %d twice", *dup);

    const Coord &c = topo.coordOf(node);
    _size = 1;
    for (int d : _dims) {
        if (d < 0 || d >= topo.numDims())
            fatal("collective group dimension %d out of range", d);
        _radix.push_back(topo.dim(d).size);
        _size *= topo.dim(d).size;
    }
    _myRank = 0;
    for (int i = static_cast<int>(_dims.size()) - 1; i >= 0; --i)
        _myRank = _myRank * _radix[std::size_t(i)] +
                  c[_dims[std::size_t(i)]];
}

int
GroupInfo::coordOf(int g, int dim) const
{
    if (g < 0 || g >= _size)
        panic("global rank %d out of [0,%d)", g, _size);
    for (std::size_t i = 0; i < _dims.size(); ++i) {
        const int coord = g % _radix[i];
        g /= _radix[i];
        if (_dims[i] == dim)
            return coord;
    }
    panic("dimension %d not part of this group", dim);
    return -1;
}

} // namespace astra

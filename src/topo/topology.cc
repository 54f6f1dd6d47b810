#include "topo/topology.hh"

#include "common/logging.hh"

namespace astra
{

Topology::Topology(const SimConfig &cfg)
    : _kind(cfg.topology)
{
    cfg.validate();
    _numNodes = cfg.numNpus();

    _dims.push_back(DimInfo{
        "local", cfg.localDim, LinkClass::Local, DimPattern::Ring,
        cfg.local.rings,
    });

    if (_kind == TopologyKind::Torus3D) {
        // Bidirectional package rings are used as two unidirectional
        // rings each (Sec. III-C).
        _dims.push_back(DimInfo{
            "horizontal", cfg.horizontalDim, LinkClass::Package,
            DimPattern::Ring, cfg.package.rings * 2,
        });
        _dims.push_back(DimInfo{
            "vertical", cfg.verticalDim, LinkClass::Package,
            DimPattern::Ring, cfg.package.rings * 2,
        });
        _size = {cfg.localDim, cfg.horizontalDim, cfg.verticalDim,
                 cfg.scaleoutDimSize};
    } else {
        _dims.push_back(DimInfo{
            "alltoall", cfg.horizontalDim, LinkClass::Package,
            DimPattern::Switch, cfg.globalSwitches,
        });
        _size = {cfg.localDim, cfg.horizontalDim, cfg.scaleoutDimSize,
                 1};
    }

    // Scale-out extension (the paper's future work): pods of the
    // scale-up topology joined through ethernet-class switches.
    if (cfg.scaleoutDimSize > 1) {
        _scaleoutDim = static_cast<int>(_dims.size());
        _dims.push_back(DimInfo{
            "scaleout", cfg.scaleoutDimSize, LinkClass::ScaleOut,
            DimPattern::Switch, cfg.scaleoutSwitches,
        });
    }

    // Node ids are mixed-radix with dimension 0 fastest: count the
    // coordinates up like an odometer instead of dividing per node.
    _coords.reserve(std::size_t(_numNodes));
    Coord c;
    for (NodeId node = 0; node < _numNodes; ++node) {
        _coords.push_back(c);
        for (int d = 0; d < 4 && ++c[d] == _size[std::size_t(d)]; ++d)
            c[d] = 0;
    }
}

void
Topology::checkDim(int d) const
{
    if (d < 0 || d >= numDims())
        panic("dimension %d out of range [0,%d)", d, numDims());
}

int
Topology::numSwitches(int d) const
{
    checkDim(d);
    return dim(d).pattern == DimPattern::Switch ? dim(d).channels : 0;
}

void
Topology::badNode(NodeId node) const
{
    panic("node %d out of range [0,%d)", node, _numNodes);
}

NodeId
Topology::nodeAt(const Coord &c) const
{
    for (int d = 0; d < 4; ++d) {
        if (c[d] < 0 || c[d] >= _size[std::size_t(d)])
            panic("coordinate %d out of range in dim %d", c[d], d);
    }
    NodeId id = 0;
    for (int d = 3; d >= 0; --d)
        id = id * _size[std::size_t(d)] + c[d];
    return id;
}

std::vector<NodeId>
Topology::group(int d, NodeId member) const
{
    checkDim(d);
    Coord c = coordOf(member);
    std::vector<NodeId> out;
    out.reserve(std::size_t(dim(d).size));
    for (int i = 0; i < dim(d).size; ++i) {
        Coord cc = c;
        cc[d] = i;
        out.push_back(nodeAt(cc));
    }
    return out;
}

int
Topology::rankInGroup(int d, NodeId node) const
{
    checkDim(d);
    return coordOf(node)[d];
}

int
Topology::channelDirection(int d, int ch) const
{
    checkDim(d);
    const DimInfo &info = dim(d);
    if (info.pattern != DimPattern::Ring)
        panic("channelDirection on non-ring dimension %d", d);
    if (ch < 0 || ch >= info.channels)
        panic("channel %d out of range [0,%d)", ch, info.channels);
    if (info.linkClass == LinkClass::Local)
        return +1; // local rings are unidirectional
    return (ch % 2 == 0) ? +1 : -1;
}

NodeId
Topology::ringNext(int d, int ch, NodeId node) const
{
    const int dir = channelDirection(d, ch);
    Coord c = coordOf(node);
    const int size = dim(d).size;
    c[d] = (c[d] + dir + size) % size;
    return nodeAt(c);
}

int
Topology::ringDistance(int d, int ch, NodeId node, int dst_rank) const
{
    const int dir = channelDirection(d, ch);
    const int size = dim(d).size;
    const int src_rank = rankInGroup(d, node);
    if (dst_rank < 0 || dst_rank >= size)
        panic("destination rank %d out of range [0,%d)", dst_rank, size);
    int delta = (dst_rank - src_rank) * dir;
    return ((delta % size) + size) % size;
}

int
Topology::phaseOrderKey(int dim_idx) const
{
    checkDim(dim_idx);
    if (dim_idx == _scaleoutDim)
        return 3; // the scale-out fabric is traversed last
    if (dim_idx == kDimLocal)
        return 0;
    if (_kind == TopologyKind::Torus3D) {
        if (dim_idx == kDimVertical)
            return 1;
        return 2; // horizontal
    }
    return 1; // AllToAll family: the switch dimension
}

std::string
Topology::toString() const
{
    std::string base;
    if (_kind == TopologyKind::Torus3D)
        base = strprintf("Torus3D %dx%dx%d", _size[0], _size[1],
                         _size[2]);
    else
        base = strprintf("AllToAll %dx%d", _size[0], _size[1]);
    if (_scaleoutDim >= 0)
        base += strprintf(" x %d pods", dim(_scaleoutDim).size);
    if (_kind == TopologyKind::Torus3D)
        return base + strprintf(" (%d NPUs)", _numNodes);
    return base + strprintf(" (%d NPUs, %d switches)", _numNodes,
                            numSwitches(kDimAllToAll));
}

} // namespace astra

/**
 * @file
 * Logical topology of the hierarchical scale-up fabric (Sec. III-C).
 *
 * Two families are modelled:
 *
 *  - Hierarchical Torus  M x N x K  — dimension 0 is the *local*
 *    (intra-package) dimension built from unidirectional high-bandwidth
 *    rings; dimension 1 is *horizontal* and dimension 2 is *vertical*,
 *    both built from bidirectional inter-package rings (each
 *    bidirectional ring is used as two unidirectional rings).
 *
 *  - Hierarchical AllToAll  M x P — dimension 0 is the local ring
 *    dimension; dimension 1 is the *alltoall* dimension where every
 *    NPU connects to every global switch, and NPUs with equal local
 *    rank across the P packages form a fully-connected group.
 *
 * The system layer works purely against this *logical* view; the
 * network backends translate (dimension, channel) hints into physical
 * links. The paper notes logical and physical topologies may differ;
 * here — as in ASTRA-SIM's default configuration — the mapping is
 * one-to-one.
 */

#ifndef ASTRA_TOPO_TOPOLOGY_HH
#define ASTRA_TOPO_TOPOLOGY_HH

#include <array>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace astra
{

/** Which link technology a dimension is built from (Table IV classes,
 *  plus the scale-out class of the paper's future-work extension). */
enum class LinkClass
{
    Local,    //!< intra-package NAM links
    Package,  //!< inter-package NAP links
    ScaleOut, //!< inter-pod (rack-to-rack) ethernet-class links
};

/** Communication pattern available inside a dimension. */
enum class DimPattern
{
    Ring,   //!< neighbours along a (uni/bi-directional) ring
    Switch, //!< all-to-all connectivity through global switches
};

/**
 * Static description of one topology dimension.
 */
struct DimInfo
{
    std::string name; //!< "local" / "horizontal" / "vertical" / "alltoall"
    int size;         //!< number of NPUs along the dimension
    LinkClass linkClass;
    DimPattern pattern;
    /**
     * Independent channels through the dimension: unidirectional rings
     * for Ring dimensions, global switches for Switch dimensions. The
     * scheduler creates one logical scheduling queue per channel
     * (Sec. IV-B).
     */
    int channels;
};

/** A coordinate in (local, horizontal, vertical, pod) space. */
struct Coord
{
    std::array<int, 4> c{0, 0, 0, 0};

    int &operator[](int d) { return c[static_cast<std::size_t>(d)]; }
    int operator[](int d) const { return c[static_cast<std::size_t>(d)]; }
    bool operator==(const Coord &) const = default;
};

/**
 * The logical topology built from a SimConfig.
 */
class Topology
{
  public:
    /** Dimension indices; collective phase order is defined elsewhere. */
    static constexpr int kDimLocal = 0;
    static constexpr int kDimHorizontal = 1;
    static constexpr int kDimVertical = 2;
    /** In the AllToAll family, dimension 1 is the switch dimension. */
    static constexpr int kDimAllToAll = 1;

    /**
     * Index of the scale-out (inter-pod) dimension, or -1 when the
     * platform has a single pod. The scale-out fabric is the paper's
     * stated future work ("extend it to a scale-out fabric, modeling
     * the transport layer, e.g., Ethernet"): pods of the scale-up
     * topology are joined through ethernet-class switches.
     */
    int scaleoutDim() const { return _scaleoutDim; }

    explicit Topology(const SimConfig &cfg);

    /** Topology family. */
    TopologyKind kind() const { return _kind; }

    /** Total number of NPUs. */
    int numNodes() const { return _numNodes; }

    /** Number of dimensions (3 for Torus3D, 2 for AllToAll). */
    int numDims() const { return static_cast<int>(_dims.size()); }

    /** Static info for dimension @p d. */
    const DimInfo &dim(int d) const { return _dims.at(std::size_t(d)); }

    /** Coordinates of @p node (a table lookup; range-checked). */
    const Coord &
    coordOf(NodeId node) const
    {
        if (node < 0 || node >= _numNodes)
            badNode(node);
        return _coords[std::size_t(node)];
    }

    /** Node at coordinates @p c. */
    NodeId nodeAt(const Coord &c) const;

    /**
     * The ordered group of nodes that vary along dimension @p d while
     * sharing @p member's other coordinates. Element i has coordinate
     * i along @p d; @p member is at index rankInGroup(d, member).
     */
    std::vector<NodeId> group(int d, NodeId member) const;

    /** @p node's rank inside its dimension-@p d group (== coordinate). */
    int rankInGroup(int d, NodeId node) const;

    /**
     * Direction of ring channel @p ch in dimension @p d: +1 (ascending
     * coordinates) or -1. Local rings are unidirectional (+1); package
     * rings alternate direction (bidirectional rings split in two).
     * Only valid for Ring dimensions.
     */
    int channelDirection(int d, int ch) const;

    /**
     * Successor of @p node on ring channel @p ch of dimension @p d
     * (one hop in the channel's direction, wrapping).
     */
    NodeId ringNext(int d, int ch, NodeId node) const;

    /**
     * Hop distance from @p node to the group member at coordinate
     * @p dst_rank, travelling in channel @p ch's direction.
     */
    int ringDistance(int d, int ch, NodeId node, int dst_rank) const;

    /** Number of global switches of switch dimension @p d. */
    int numSwitches(int d) const;

    /**
     * Canonical traversal order of the dimensions (Sec. III-D): local
     * first, then vertical, then horizontal (then the alltoall
     * dimension for the AllToAll family). Multi-phase plans follow
     * this order, and collective groups number their participants in
     * the same mixed-radix order — multi-phase all-gather relies on
     * the two orders agreeing to keep gathered ranges contiguous.
     */
    int phaseOrderKey(int dim) const;

    /** One-line description, e.g. "Torus3D 4x4x4 (64 NPUs)". */
    std::string toString() const;

  private:
    TopologyKind _kind;
    std::array<int, 4> _size{1, 1, 1, 1}; //!< extent per dim index
    std::vector<DimInfo> _dims;
    int _numNodes;
    int _scaleoutDim = -1;
    /** coordOf() per node, precomputed: the per-message paths
     *  (routing, sends, group ranks) read it instead of dividing. */
    std::vector<Coord> _coords;

    void checkDim(int d) const;
    [[noreturn]] void badNode(NodeId node) const;
};

} // namespace astra

#endif // ASTRA_TOPO_TOPOLOGY_HH

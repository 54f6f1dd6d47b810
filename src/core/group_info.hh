/**
 * @file
 * Participant-group bookkeeping for a (possibly hybrid-parallel)
 * collective.
 *
 * A collective runs over the nodes spanned by a subset of topology
 * dimensions (all dimensions for machine-wide collectives; e.g. only
 * the vertical dimension for the model-parallel groups of Sec. V-E's
 * Transformer run). Participants get a dense *global rank* in
 * mixed-radix order over the participating dimensions (ascending
 * dimension index), which the chunk contribution tracking and the
 * multi-phase all-to-all routing are defined against.
 */

#ifndef ASTRA_CORE_GROUP_INFO_HH
#define ASTRA_CORE_GROUP_INFO_HH

#include <vector>

#include "common/types.hh"
#include "topo/topology.hh"

namespace astra
{

/**
 * Immutable description of one node's view of a collective group.
 */
class GroupInfo
{
  public:
    /**
     * @param topo  The logical topology.
     * @param node  The local node.
     * @param dims  Participating dimension indices (unordered; size-1
     *              dimensions are kept — they contribute radix 1).
     */
    GroupInfo(const Topology &topo, NodeId node, std::vector<int> dims);

    /** Number of participants E. */
    int size() const { return _size; }

    /** The local node's global rank. */
    int myRank() const { return _myRank; }

    /** Coordinate along dimension @p dim of global rank @p g. */
    int coordOf(int g, int dim) const;

  private:
    std::vector<int> _dims;   //!< ascending dimension indices
    std::vector<int> _radix;  //!< size of each dim
    int _size;
    int _myRank;
};

} // namespace astra

#endif // ASTRA_CORE_GROUP_INFO_HH

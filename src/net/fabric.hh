/**
 * @file
 * The physical scale-up fabric: unidirectional links and route lookup.
 *
 * Both network backends share this structure. Links are built from the
 * logical topology with a one-to-one mapping (the ASTRA-SIM default):
 *
 *  - every ring channel of a Ring dimension contributes one link per
 *    node (node -> its successor on that channel);
 *  - every global switch of a Switch dimension contributes, per node,
 *    an up-link (node -> switch) and a down-link (switch -> node).
 *
 * Ports are integers: 0..numNodes-1 are NPU endpoints, numNodes..
 * numNodes+numSwitches-1 are global switches.
 */

#ifndef ASTRA_NET_FABRIC_HH
#define ASTRA_NET_FABRIC_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/config.hh"
#include "net/network_api.hh"
#include "topo/topology.hh"

namespace astra
{

/** Dense link identifier. */
using LinkId = std::int32_t;

/** One unidirectional physical link. */
struct LinkDesc
{
    std::int32_t from; //!< source port (node or switch)
    std::int32_t to;   //!< destination port (node or switch)
    LinkClass cls;     //!< intra- or inter-package technology
    int dim;           //!< topology dimension the link belongs to
};

/**
 * Immutable physical fabric.
 */
class Fabric
{
  public:
    /**
     * @param topo  The *physical* topology the links are built from.
     * @param cfg   Link technology parameters.
     * @param one_to_one  True when the system layer's logical topology
     *        equals @p topo (the ASTRA-SIM default); route hints are
     *        then followed literally. False for logical-on-physical
     *        mapping (Sec. IV-B): hints only seed the channel choice
     *        and transfers are routed dimension-ordered through the
     *        physical fabric.
     */
    Fabric(const Topology &topo, const SimConfig &cfg,
           bool one_to_one = true);

    /** Is the logical view identical to the physical fabric? */
    bool oneToOne() const { return _oneToOne; }

    /**
     * Route a transfer under the configured mapping: route() when
     * one-to-one, routeMapped() otherwise. A negative hint.dim marks a
     * point-to-point transfer between arbitrary endpoints (pipeline
     * parallelism): those are always routed dimension-ordered.
     */
    std::vector<LinkId>
    resolve(NodeId src, NodeId dst, const RouteHint &hint) const
    {
        std::vector<LinkId> path;
        resolve(src, dst, hint, path);
        return path;
    }

    /** resolve(), appending the links to @p out (no allocation once
     *  @p out has the capacity). */
    void
    resolve(NodeId src, NodeId dst, const RouteHint &hint,
            std::vector<LinkId> &out) const
    {
        if (!_oneToOne || hint.dim < 0)
            routeMapped(src, dst, hint.channel, out);
        else
            route(src, dst, hint, out);
    }

    /**
     * Dimension-ordered route through the physical fabric between two
     * arbitrary endpoints; @p channel_seed selects ring channels and
     * switches deterministically.
     */
    std::vector<LinkId>
    routeMapped(NodeId src, NodeId dst, int channel_seed) const
    {
        std::vector<LinkId> path;
        routeMapped(src, dst, channel_seed, path);
        return path;
    }

    /** routeMapped(), appending the links to @p out. */
    void routeMapped(NodeId src, NodeId dst, int channel_seed,
                     std::vector<LinkId> &out) const;

    /** Number of links. */
    int numLinks() const { return static_cast<int>(_links.size()); }

    /** Descriptor for @p id. */
    const LinkDesc &
    link(LinkId id) const
    {
        return _links[std::size_t(id)];
    }

    /** Technology parameters for @p cls (from the SimConfig). */
    const LinkParams &
    params(LinkClass cls) const
    {
        switch (cls) {
          case LinkClass::Local: return _local;
          case LinkClass::Package: return _package;
          case LinkClass::ScaleOut: return _scaleout;
        }
        return _package; // unreachable
    }

    /** Shorthand: parameters of link @p id's class. */
    const LinkParams &
    linkParams(LinkId id) const
    {
        return params(link(id).cls);
    }

    /**
     * Physical route for a transfer from @p src to @p dst under
     * @p hint. Ring dimensions walk the hinted channel; Switch
     * dimensions go via the hinted global switch. @p src and @p dst
     * must belong to the same dimension-@p hint.dim group.
     * An empty route is returned when src == dst.
     */
    std::vector<LinkId>
    route(NodeId src, NodeId dst, const RouteHint &hint) const
    {
        std::vector<LinkId> path;
        route(src, dst, hint, path);
        return path;
    }

    /** route(), appending the links to @p out. */
    void route(NodeId src, NodeId dst, const RouteHint &hint,
               std::vector<LinkId> &out) const;

    /** Number of hops route() would take (without building it). */
    int hopCount(NodeId src, NodeId dst, const RouteHint &hint) const;

    /** Most links any route resolve() returns can have. */
    std::size_t maxRouteLength() const;

    const Topology &topology() const { return _topo; }

    /**
     * Ring-channel link map: ringLinks()[(dim,ch)][node] is the link
     * leaving @p node on ring channel @p ch of dimension @p dim. The
     * fault layer uses it to find which channels a forever-down link
     * disables (FaultManager::bindRingChannels).
     */
    const std::map<std::pair<int, int>, std::vector<LinkId>> &
    ringLinks() const
    {
        return _ringLinks;
    }

  private:
    const Topology &_topo;
    bool _oneToOne;
    LinkParams _local;
    LinkParams _package;
    LinkParams _scaleout;
    std::vector<LinkDesc> _links;

    /** ringLink[(dim,ch)][node] = link leaving node on that channel. */
    std::map<std::pair<int, int>, std::vector<LinkId>> _ringLinks;
    /** upLink[(dim,switch)][node], downLink[(dim,switch)][node]. */
    std::map<std::pair<int, int>, std::vector<LinkId>> _upLinks;
    std::map<std::pair<int, int>, std::vector<LinkId>> _downLinks;
    std::int32_t _switchPorts = 0; //!< switch port id allocator
};

/**
 * Fold per-link usage tallies into metrics:
 *  - one "link.<id>.util" counter per link that carried traffic
 *    (busy / elapsed, NaN-free via safeDiv);
 *  - per-dimension aggregates "dim.<name>.{busy,queue_wait,bytes,
 *    grants,links,util}" where utilization is total busy over the
 *    dimension's aggregate link-time;
 *  - a "link.util.pct" histogram over all links (percent, so the log2
 *    buckets resolve the 0..100 range);
 *  - fabric-wide "links.total" / "bytes.total" / "util.mean".
 *
 * @p usage must be indexed by LinkId and sized fabric.numLinks().
 * A zero @p elapsed yields 0.0 utilization everywhere, never NaN.
 */
void exportLinkUsage(const Fabric &fabric,
                     const std::vector<LinkUsage> &usage, Tick elapsed,
                     StatGroup &g);

} // namespace astra

#endif // ASTRA_NET_FABRIC_HH

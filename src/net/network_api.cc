#include "net/network_api.hh"

#include "common/logging.hh"
#include "common/stats.hh"

namespace astra
{

void
NetworkApi::deliver(const Message &msg)
{
    if (msg.dst < 0 || std::size_t(msg.dst) >= _receivers.size() ||
        !_receivers[std::size_t(msg.dst)]) {
        panic("message delivered to node %d with no receiver", msg.dst);
    }
    ++_delivered;
    _receivers[std::size_t(msg.dst)](msg);
}

void
NetworkApi::notifyLoss(const Message &msg, int link)
{
    ++_lostMessages;
    if (_lossHandler)
        _lossHandler(msg, link);
}

void
NetworkApi::exportStats(StatGroup &g) const
{
    g.set("delivered.messages", double(_delivered));
    if (_lostMessages)
        g.set("lost.messages", double(_lostMessages));
    g.set("byte.hops", double(_byteHops));
    g.set("energy.local_pj", _energy.localLinkPj);
    g.set("energy.package_pj", _energy.packageLinkPj);
    g.set("energy.scaleout_pj", _energy.scaleoutLinkPj);
    g.set("energy.router_pj", _energy.routerPj);
    g.set("energy.total_uj", _energy.totalUj());
}

} // namespace astra

/**
 * @file
 * Network-layer invariant checkers (integrity layer) — the free
 * checker predicates plus the backends' drain-time validators. Member
 * functions live here, in their own translation unit, so the checking
 * logic stays out of the hot-path files while retaining access to the
 * backends' private ledgers.
 */

#include "net/validate.hh"

#include "common/check.hh"
#include "common/validate.hh"
#include "net/analytical.hh"
#include "net/garnet_lite.hh"

namespace astra
{

namespace validate
{

void
creditBounds(int link, int occupancy_flits, int capacity_flits)
{
    ASTRA_CHECK(occupancy_flits >= 0,
                "credit ledger underflow on link %d: occupancy=%d flits "
                "(a credit was released twice)",
                link, occupancy_flits);
    ASTRA_CHECK(occupancy_flits <= capacity_flits,
                "credit ledger overflow on link %d: occupancy=%d flits "
                "exceeds VC capacity=%d (a packet was granted without "
                "credits)",
                link, occupancy_flits, capacity_flits);
}

void
packetConservation(const char *what, std::uint64_t injected,
                   std::uint64_t retired, std::uint64_t dropped)
{
    ASTRA_CHECK(injected == retired + dropped,
                "%s conservation violated at drain: injected=%llu "
                "retired=%llu dropped=%llu (delta=%lld)",
                what, static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(retired),
                static_cast<unsigned long long>(dropped),
                static_cast<long long>(injected) -
                    static_cast<long long>(retired + dropped));
}

void
linkGrantNonOverlap(int link, Tick grant_start, Tick busy_until)
{
    ASTRA_CHECK(grant_start >= busy_until,
                "busy-interval overlap on link %d: grant at tick %llu "
                "while the previous transfer occupies the link until "
                "tick %llu",
                link, static_cast<unsigned long long>(grant_start),
                static_cast<unsigned long long>(busy_until));
}

void
drainQueueEmpty(const char *what, int link, std::size_t waiting)
{
    ASTRA_CHECK(waiting == 0,
                "%s drained with %zu transfer(s) still waiting on "
                "link %d",
                what, waiting, link);
}

} // namespace validate

void
GarnetLiteNetwork::registerCheckers(ValidatorRegistry &reg)
{
    reg.add("net.garnet_lite.drain", [this] { validateDrain(); });
}

void
GarnetLiteNetwork::validateDrain() const
{
    for (std::size_t l = 0; l < _links.size(); ++l) {
        const LinkState &ls = _links[l];
        validate::drainQueueEmpty("garnet-lite", int(l), ls.waiting);
        ASTRA_CHECK(ls.bufferOcc == 0,
                    "garnet-lite drained with %d flit(s) of credit "
                    "still held in link %zu's input buffer",
                    ls.bufferOcc, l);
    }
    validate::packetConservation("packet", _injectedPackets,
                                 _deliveredPackets, _droppedPackets);
    validate::packetConservation("flit", _injectedFlits, _retiredFlits,
                                 _droppedFlits);
    ASTRA_CHECK(_packetFree.size() == _packetArena.size(),
                "garnet-lite drained with %zu of %zu arena packet(s) "
                "not returned to the free list",
                _packetArena.size() - _packetFree.size(),
                _packetArena.size());
    ASTRA_CHECK(liveSlots() == 0,
                "garnet-lite drained with %zu message slot(s) still live",
                liveSlots());
}

void
AnalyticalNetwork::registerCheckers(ValidatorRegistry &reg)
{
    reg.add("net.analytical.drain", [this] { validateDrain(); });
}

void
AnalyticalNetwork::validateDrain() const
{
    ASTRA_CHECK(liveSlots() == 0,
                "analytical backend drained with %zu transfer slot(s) "
                "still live",
                liveSlots());
    if (!_validate)
        return; // ledger was never maintained; nothing to cross-check
    ASTRA_CHECK(_busyUntil.size() == _freeAt.size(),
                "analytical busy-until ledger tracks %zu link(s) but "
                "the backend has %zu",
                _busyUntil.size(), _freeAt.size());
    for (std::size_t l = 0; l < _freeAt.size(); ++l) {
        ASTRA_CHECK(_busyUntil[l] == _freeAt[l],
                    "analytical busy-until ledger disagrees on link "
                    "%zu: ledger=%llu backend=%llu",
                    l, static_cast<unsigned long long>(_busyUntil[l]),
                    static_cast<unsigned long long>(_freeAt[l]));
    }
}

} // namespace astra

#include "collective/algorithm.hh"

#include "collective/direct_algorithms.hh"
#include "collective/ring_algorithms.hh"
#include "common/logging.hh"

namespace astra
{

std::unique_ptr<PhaseAlgorithm>
makePhaseAlgorithm(DimPattern pattern, CollectiveKind op, AlgContext &ctx)
{
    const bool ring = pattern == DimPattern::Ring;
    switch (op) {
      case CollectiveKind::ReduceScatter:
        if (ring)
            return std::make_unique<RingReduceScatter>(ctx, 0, nullptr);
        return std::make_unique<DirectReduceScatter>(ctx, 0, nullptr);
      case CollectiveKind::AllGather:
        if (ring)
            return std::make_unique<RingAllGather>(ctx, 0, nullptr);
        return std::make_unique<DirectAllGather>(ctx, 0, nullptr);
      case CollectiveKind::AllReduce:
        // The all-gather steps follow the reduce-scatter's d-1 ring
        // steps, or its single direct step.
        if (ring)
            return std::make_unique<
                AllReduce<RingReduceScatter, RingAllGather>>(
                ctx, ctx.phase().groupSize - 1);
        return std::make_unique<
            AllReduce<DirectReduceScatter, DirectAllGather>>(ctx, 1);
      case CollectiveKind::AllToAll:
        if (ring)
            return std::make_unique<RingAllToAll>(ctx);
        return std::make_unique<DirectAllToAll>(ctx);
      case CollectiveKind::None:
        break;
    }
    panic("no algorithm for collective kind %d", static_cast<int>(op));
    return nullptr;
}

} // namespace astra

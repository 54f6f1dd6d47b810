/**
 * @file
 * System-layer drain-time validators (integrity layer,
 * docs/validation.md). Lives in its own translation unit so the
 * accounting checks stay out of the scheduler hot path while keeping
 * access to its private queues.
 */

#include "common/check.hh"
#include "core/scheduler.hh"
#include "core/sys.hh"

namespace astra
{

void
Scheduler::validateDrained() const
{
    const int npu = int(_sys.id());
    ASTRA_CHECK(_ready.empty(),
                "scheduler on npu %d drained with %zu chunk(s) still "
                "in the ready queue",
                npu, _ready.size());
    ASTRA_CHECK(_phase0Active == 0,
                "scheduler on npu %d drained with %d chunk(s) still "
                "active in phase 0",
                npu, _phase0Active);
    ASTRA_CHECK(_inFlight == 0,
                "scheduler on npu %d drained with %d chunk(s) still "
                "in flight",
                npu, _inFlight);
    for (std::size_t i = 0; i < _lsqs.size(); ++i) {
        const Lsq &q = _lsqs[i];
        const LsqKey key = lsqKeyAt(i);
        ASTRA_CHECK(q.waiting.empty() && q.active == 0,
                    "LSQ (phase %d dim %d channel %d) on npu %d "
                    "drained with %zu waiting and %d active chunk(s)",
                    key.phase, key.dim, key.channel, npu,
                    q.waiting.size(), q.active);
    }
}

} // namespace astra

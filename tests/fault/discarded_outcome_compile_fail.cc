// Compile-fail check: RunOutcome is [[nodiscard]] and the tree builds
// with -Werror=unused-result, so the two discarding calls below must
// not compile. The discarded_outcome_control target builds this file
// with DISCARD_CONTROL defined, proving the rest of it is well-formed.

#include "fault/fault.hh"

namespace
{

astra::RunOutcome
decide()
{
    return astra::RunOutcome::Completed;
}

struct Runner
{
    astra::RunOutcome run() { return decide(); }
};

} // namespace

int
main()
{
    Runner r;
    (void)decide();
    astra::RunOutcome kept = r.run();
#ifndef DISCARD_CONTROL
    decide();
    r.run();
#endif
    return kept == astra::RunOutcome::Completed ? 0 : 1;
}

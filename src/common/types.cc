#include "common/types.hh"

#include <cctype>
#include <cmath>
#include <string>

#include "common/logging.hh"

namespace astra
{

Tick
ceilTicks(double ticks, const char *what)
{
    // 2^64: the first double past the largest Tick.
    constexpr double kLimit = 18446744073709551616.0;
    const double t = std::ceil(ticks);
    if (!(t >= 0.0 && t < kLimit))
        fatal("%s of %g cycles does not fit a %zu-bit tick", what, ticks,
              sizeof(Tick) * 8);
    return static_cast<Tick>(t);
}

const char *
toString(CollectiveKind kind)
{
    switch (kind) {
      case CollectiveKind::ReduceScatter: return "REDUCESCATTER";
      case CollectiveKind::AllGather: return "ALLGATHER";
      case CollectiveKind::AllReduce: return "ALLREDUCE";
      case CollectiveKind::AllToAll: return "ALLTOALL";
      case CollectiveKind::None: return "NONE";
    }
    return "UNKNOWN";
}

CollectiveKind
parseCollectiveKind(const char *name)
{
    std::string canon;
    for (const char *p = name; *p; ++p) {
        if (*p == '_' || *p == '-')
            continue;
        canon.push_back(static_cast<char>(
            std::toupper(static_cast<unsigned char>(*p))));
    }
    if (canon.empty() || canon == "NONE")
        return CollectiveKind::None;
    if (canon == "REDUCESCATTER")
        return CollectiveKind::ReduceScatter;
    if (canon == "ALLGATHER")
        return CollectiveKind::AllGather;
    if (canon == "ALLREDUCE")
        return CollectiveKind::AllReduce;
    if (canon == "ALLTOALL")
        return CollectiveKind::AllToAll;
    fatal("unknown collective kind '%s'", name);
    return CollectiveKind::None; // unreachable
}

} // namespace astra

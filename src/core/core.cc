#include "core/core.hh"

namespace fo4::core
{

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
    case StallCause::BranchMispredict:
        return "branch-mispredict";
    case StallCause::IcacheMiss:
        return "icache-miss";
    case StallCause::DcacheMiss:
        return "dcache-miss";
    case StallCause::WindowFull:
        return "window-full";
    case StallCause::RawLoadUse:
        return "raw-load-use";
    case StallCause::Execute:
        return "execute";
    case StallCause::FrontEnd:
        return "front-end";
    case StallCause::Other:
        return "other";
    }
    return "unknown";
}

std::uint64_t
StallBreakdown::total() const
{
    std::uint64_t sum = 0;
    for (const auto v : byCause)
        sum += v;
    return sum;
}

StallBreakdown &
StallBreakdown::operator+=(const StallBreakdown &other)
{
    for (int i = 0; i < numStallCauses; ++i)
        byCause[i] += other.byCause[i];
    return *this;
}

SimResult
SimResult::operator-(const SimResult &other) const
{
    SimResult d;
    forEachCounter([](std::uint64_t &out, std::uint64_t a,
                      std::uint64_t b) { out = a - b; },
                   d, *this, other);
    return d;
}

} // namespace fo4::core

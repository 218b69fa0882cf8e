#include "tech/clocking.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::tech
{

OverheadModel
OverheadModel::fromKurdMeasurements(Technology measuredAt, double latchFo4)
{
    // Kurd et al. (ISSCC 2001), Pentium 4 clock distribution: skew below
    // 20 ps and jitter 35 ps with multiple clock domains at 180nm.
    const double skewPs = 20.0;
    const double jitterPs = 35.0;
    auto round1 = [](double v) { return std::round(v * 10.0) / 10.0; };
    OverheadModel m;
    m.latchFo4 = latchFo4;
    m.skewFo4 = round1(measuredAt.toFo4(skewPs));
    m.jitterFo4 = round1(measuredAt.toFo4(jitterPs));
    return m;
}

OverheadModel
OverheadModel::validated(double latchFo4, double skewFo4, double jitterFo4)
{
    util::ErrorCollector errs;
    const struct
    {
        const char *name;
        double value;
    } parts[] = {{"latch", latchFo4}, {"skew", skewFo4},
                 {"jitter", jitterFo4}};
    for (const auto &part : parts) {
        if (!std::isfinite(part.value))
            errs.addf("%s overhead must be finite (got %g)", part.name,
                      part.value);
        else if (part.value < 0.0)
            errs.addf("%s overhead cannot be negative (got %g FO4)",
                      part.name, part.value);
    }
    const util::Status st = errs.status(util::ErrorCode::InvalidConfig);
    if (!st.isOk())
        throw util::ConfigError(st.message());
    return OverheadModel{latchFo4, skewFo4, jitterFo4};
}

util::Status
ClockModel::validate() const
{
    util::ErrorCollector errs;
    if (!std::isfinite(tUsefulFo4) || !(tUsefulFo4 > 0.0)) {
        errs.addf("t_useful %g FO4 must be finite and positive",
                  tUsefulFo4);
    } else if (tUsefulFo4 < kMinUsefulFo4) {
        errs.addf("t_useful %g FO4 is below %g FO4, where a %g FO4 "
                  "latency's cycle count overflows",
                  tUsefulFo4, kMinUsefulFo4, kMaxLatencyFo4);
    }
    if (!std::isfinite(overhead.latchFo4) ||
        !std::isfinite(overhead.skewFo4) ||
        !std::isfinite(overhead.jitterFo4)) {
        errs.addf("overheads must be finite (latch %g, skew %g, jitter "
                  "%g FO4)",
                  overhead.latchFo4, overhead.skewFo4, overhead.jitterFo4);
    } else if (overhead.latchFo4 < 0.0 || overhead.skewFo4 < 0.0 ||
               overhead.jitterFo4 < 0.0) {
        errs.addf("overheads cannot be negative (latch %.2f, skew %.2f, "
                  "jitter %.2f FO4)",
                  overhead.latchFo4, overhead.skewFo4, overhead.jitterFo4);
    }
    if (!(tech.drawnGateLengthNm > 0.0)) {
        errs.addf("drawn gate length %.1f nm must be positive",
                  tech.drawnGateLengthNm);
    }
    return errs.status(util::ErrorCode::InvalidConfig);
}

int
ClockModel::latencyCycles(double latencyFo4) const
{
    FO4_ASSERT(tUsefulFo4 > 0.0, "t_useful must be positive");
    FO4_ASSERT(latencyFo4 >= 0.0, "negative latency");
    const double cycles = std::ceil(latencyFo4 / tUsefulFo4);
    if (!(cycles <= std::numeric_limits<int>::max())) {
        throw util::ConfigError(util::strprintf(
            "a %g FO4 latency at t_useful %g FO4 overflows a cycle count",
            latencyFo4, tUsefulFo4));
    }
    return cycles < 1.0 ? 1 : static_cast<int>(cycles);
}

} // namespace fo4::tech

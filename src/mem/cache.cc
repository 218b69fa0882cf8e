#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace fo4::mem
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

util::Status
CacheParams::validate() const
{
    util::ErrorCollector errs;
    if (!isPowerOfTwo(lineBytes))
        errs.addf("line size %u not a power of two", lineBytes);
    if (associativity < 1)
        errs.addf("associativity %u below one", associativity);
    if (lineBytes > 0 && associativity >= 1) {
        if (capacityBytes % (std::uint64_t(lineBytes) * associativity) != 0) {
            errs.addf("capacity %llu not divisible into %u-way sets of "
                      "%u-byte lines",
                      static_cast<unsigned long long>(capacityBytes),
                      associativity, lineBytes);
        } else if (!isPowerOfTwo(sets())) {
            errs.addf("set count %llu not a power of two",
                      static_cast<unsigned long long>(sets()));
        }
    }
    return errs.status(util::ErrorCode::InvalidConfig);
}

Cache::Cache(const CacheParams &params)
    : prm(params)
{
    if (const auto st = prm.validate(); !st.isOk())
        throw util::ConfigError("cache geometry: " + st.message());
    lineShift = std::countr_zero(prm.lineBytes);
    setMask = prm.sets() - 1;
    lines.resize(prm.sets() * prm.associativity);
}

bool
Cache::access(std::uint64_t addr)
{
    ++useClock;
    const std::uint64_t tag = addr >> lineShift;
    Line *base = &lines[(tag & setMask) * prm.associativity];

    // An empty line (lastUse 0) is the least recently used of all; the
    // last empty way is filled first.
    Line *victim = base;
    for (std::uint32_t way = 0; way < prm.associativity; ++way) {
        Line &line = base[way];
        if (line.lastUse != 0 && line.tag == tag) {
            line.lastUse = useClock;
            ++hits_;
            return true;
        }
        if (line.lastUse <= victim->lastUse)
            victim = &line;
    }

    ++misses_;
    victim->tag = tag;
    victim->lastUse = useClock;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t tag = addr >> lineShift;
    const Line *base = &lines[(tag & setMask) * prm.associativity];
    for (std::uint32_t way = 0; way < prm.associativity; ++way) {
        if (base[way].lastUse != 0 && base[way].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    std::fill(lines.begin(), lines.end(), Line{});
}

} // namespace fo4::mem

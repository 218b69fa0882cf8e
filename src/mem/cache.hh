/**
 * @file
 * Set-associative cache with true LRU replacement.  The simulator models
 * latency, not data, so a cache tracks only tags; accesses report hit or
 * miss and allocate on miss.
 */

#ifndef FO4_MEM_CACHE_HH
#define FO4_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "util/status.hh"

namespace fo4::mem
{

/** Geometry of one cache level. */
struct CacheParams
{
    std::uint64_t capacityBytes = 64 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t associativity = 2;

    std::uint64_t sets() const
    {
        return capacityBytes / lineBytes / associativity;
    }

    /** Check the geometry rules, reporting every violation at once. */
    util::Status validate() const;
};

/** Tag-only set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up an address; on miss, allocate the line (evicting LRU).
     * @return true on hit
     */
    bool access(std::uint64_t addr);

    /** Look up without any state change (for tests/inspection). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate everything. */
    void flush();

    const CacheParams &params() const { return prm; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const double total = static_cast<double>(hits_ + misses_);
        return total > 0 ? misses_ / total : 0.0;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        /** LRU timestamp; 0 marks an empty line, because useClock
         *  counts from 1. */
        std::uint64_t lastUse = 0;
    };

    CacheParams prm;
    int lineShift = 0;         // log2(lineBytes): line address = addr >> it
    std::uint64_t setMask = 0; // sets - 1: set = line address & it
    std::vector<Line> lines;   // sets * associativity, set-major
    std::uint64_t useClock = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace fo4::mem

#endif // FO4_MEM_CACHE_HH

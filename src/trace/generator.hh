/**
 * @file
 * Synthetic instruction stream generator: turns a BenchmarkProfile into a
 * deterministic, restartable MicroOp stream.
 */

#ifndef FO4_TRACE_GENERATOR_HH
#define FO4_TRACE_GENERATOR_HH

#include <vector>

#include "trace/profile.hh"
#include "trace/trace.hh"
#include "util/random.hh"

namespace fo4::trace
{

/**
 * Generates an instruction stream with the statistical properties of a
 * BenchmarkProfile:
 *
 *  - basic blocks of geometric size ending in a conditional branch;
 *  - register dataflow built by sampling producer distances, with
 *    separate integer and floating-point result streams;
 *  - branch outcomes from a static-branch population that mixes strongly
 *    biased, short-pattern and hard (near-random) branches;
 *  - memory addresses mixing sequential stride streams with
 *    Zipf-distributed references over the working set.
 *
 * Streams are bit-reproducible: two generators built from the same
 * profile produce identical streams, and reset() rewinds exactly.
 */
class SyntheticTraceGenerator : public TraceSource
{
  public:
    explicit SyntheticTraceGenerator(const BenchmarkProfile &profile);

    isa::MicroOp next() override;
    void reset() override;

    const BenchmarkProfile &profile() const { return prof; }

  private:
    struct StaticBranch
    {
        std::uint64_t pc;
        double takenBias;       ///< for biased/hard branches
        int patternPeriod;      ///< 0 = not a pattern branch
        int patternPhase;       ///< mutable position in the pattern
        bool correlated;        ///< outcome follows global history parity
        std::uint64_t target;   ///< taken target block address
    };

    struct StrideStream
    {
        std::uint64_t base;
        std::uint64_t stride;
        std::uint64_t count;
    };

    isa::MicroOp makeBranch();
    isa::MicroOp makeOp(isa::OpClass cls);
    std::int16_t pickSource(bool fpPreferred, double meanDistance);
    std::uint64_t nextAddress();

    BenchmarkProfile prof;
    util::Rng rng;
    // Built once, in the constructor; reset() leaves them alone.
    util::DiscreteSampler opMix;
    util::ZipfSampler branchZipf;
    util::ZipfSampler memZipf;

    std::vector<StaticBranch> branches;
    std::vector<StrideStream> streams;
    std::size_t nextStream = 0;

    // Recent producer rings (architectural register ids, newest first).
    std::vector<std::int16_t> intRing;
    std::vector<std::int16_t> fpRing;
    std::size_t intRingPos = 0;
    std::size_t fpRingPos = 0;

    int nextIntReg = 0;
    int nextFpReg = 0;

    std::uint64_t seq = 0;
    std::uint64_t pc = 0x1000;
    int blockRemaining = 0;
    std::uint64_t outcomeHistory = 0; ///< recent branch outcomes (LSB newest)
};

} // namespace fo4::trace

#endif // FO4_TRACE_GENERATOR_HH

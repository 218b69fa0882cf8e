#include "trace/generator.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fo4::trace
{

namespace
{

/** Ring capacity; sampled producer distances are capped below this so a
 *  rotating destination pool of 64 registers per class never aliases. */
constexpr std::size_t ringSize = 48;
constexpr int intRegPool = 64;  // r0..r63
constexpr int fpRegPool = 64;   // f0..f63 stored as 64..127

/** Geometric sample with the given mean, minimum 1. */
std::uint64_t
sampleDistance(util::Rng &rng, double mean)
{
    if (mean <= 1.0)
        return 1;
    const double p = 1.0 / mean;
    const std::uint64_t d = 1 + rng.geometric(p);
    return std::min<std::uint64_t>(d, ringSize - 1);
}

const BenchmarkProfile &
validated(const BenchmarkProfile &profile)
{
    profile.validateOrThrow();
    return profile;
}

} // namespace

// Building the samplers draws nothing from the RNG, so reset() alone
// decides the stream.
SyntheticTraceGenerator::SyntheticTraceGenerator(
    const BenchmarkProfile &profile)
    : prof(validated(profile)), rng(profile.seed),
      opMix({prof.wIntAlu, prof.wIntMult, prof.wFpAdd, prof.wFpMult,
             prof.wFpDiv, prof.wFpSqrt, prof.wLoad, prof.wStore}),
      branchZipf(static_cast<std::size_t>(prof.staticBranches), 0.9),
      memZipf(std::max<std::uint64_t>(1, prof.workingSetBytes / 64),
              prof.zipfExponent)
{
    reset();
}

void
SyntheticTraceGenerator::reset()
{
    rng = util::Rng(prof.seed);

    // Static branch population: biased, then pattern, then hard branches.
    // Sites are spaced one instruction apart so predictor tables index
    // them distinctly (pc >> 2), as distinct static branches would.
    branches.clear();
    for (int i = 0; i < prof.staticBranches; ++i) {
        StaticBranch b;
        b.pc = 0x400000 + static_cast<std::uint64_t>(i) * 4;
        b.target = 0x1000 + rng.below(1 << 16) * 4;
        b.patternPeriod = 0;
        b.patternPhase = 0;
        b.correlated = false;
        const double u = rng.uniform();
        if (u < prof.biasedBranchFraction) {
            // Mostly loop back-edges: biased toward taken.
            b.takenBias = rng.chance(prof.takenBiasFraction)
                              ? prof.strongBias
                              : 1.0 - prof.strongBias;
        } else if (u < prof.biasedBranchFraction +
                           prof.patternBranchFraction) {
            b.patternPeriod = static_cast<int>(2 + rng.below(4)); // 2..5
            b.takenBias = 0.5;
        } else if (u < prof.biasedBranchFraction +
                           prof.patternBranchFraction +
                           prof.correlatedBranchFraction) {
            b.correlated = true;
            b.takenBias = 0.5;
        } else {
            b.takenBias = 0.35 + 0.3 * rng.uniform(); // hard branch
        }
        branches.push_back(b);
    }

    // Stride streams: predominantly element-sized strides (several
    // accesses per cache line, as array sweeps produce), occasionally a
    // line-sized stride (row-major walks of 2D data).
    streams.clear();
    for (int i = 0; i < std::max(1, prof.strideStreams); ++i) {
        StrideStream s;
        // Far-apart bases staggered by a few KB so concurrent streams do
        // not march through the same cache sets in lockstep.
        s.base = 0x10000000 + static_cast<std::uint64_t>(i) * (64ull << 20) +
                 static_cast<std::uint64_t>(i) * 8192;
        s.stride = rng.chance(prof.lineStrideProb) ? 64 : 8;
        s.count = 0;
        streams.push_back(s);
    }
    nextStream = 0;

    // Seed the producer rings so early consumers have something to read.
    intRing.assign(ringSize, 0);
    fpRing.assign(ringSize, 64);
    for (std::size_t i = 0; i < ringSize; ++i) {
        intRing[i] = static_cast<std::int16_t>(i % intRegPool);
        fpRing[i] = static_cast<std::int16_t>(64 + i % fpRegPool);
    }
    intRingPos = 0;
    fpRingPos = 0;
    nextIntReg = 0;
    nextFpReg = 0;
    outcomeHistory = 0;

    seq = 0;
    pc = 0x1000;
    blockRemaining = static_cast<int>(
        std::max<std::uint64_t>(1, sampleDistance(rng, prof.meanBlockSize)));
}

std::int16_t
SyntheticTraceGenerator::pickSource(bool fpPreferred, double meanDistance)
{
    const bool useFp = fpPreferred && rng.chance(prof.fpSourceAffinity);
    const auto &ring = useFp ? fpRing : intRing;
    const std::size_t pos = useFp ? fpRingPos : intRingPos;

    // Shifted geometric: at least minDepDistance, with the profile's
    // overall mean.
    const double minDist = std::max(1.0, prof.minDepDistance);
    const double extraMean = std::max(1.0, meanDistance - minDist + 1.0);
    std::uint64_t dist = static_cast<std::uint64_t>(minDist) - 1 +
                         sampleDistance(rng, extraMean);
    if (dist > ringSize - 1)
        dist = ringSize - 1;
    const std::size_t idx = (pos + ringSize - dist) % ringSize;
    return ring[idx];
}

std::uint64_t
SyntheticTraceGenerator::nextAddress()
{
    if (rng.chance(prof.strideFraction)) {
        StrideStream &s = streams[nextStream];
        nextStream = (nextStream + 1) % streams.size();
        const std::uint64_t a = s.base + s.count * s.stride;
        ++s.count;
        // The streams collectively cover the profile's footprint: each
        // wraps after its share of the working set.
        const std::uint64_t share =
            std::max<std::uint64_t>(4096,
                                    prof.workingSetBytes / streams.size());
        if (s.count * s.stride >= share)
            s.count = 0;
        return a;
    }
    const std::uint64_t line = memZipf.sample(rng);
    return 0x20000000 + line * 64 + rng.below(8) * 8;
}

isa::MicroOp
SyntheticTraceGenerator::makeBranch()
{
    StaticBranch &b = branches[branchZipf.sample(rng)];

    isa::MicroOp op;
    op.seq = seq++;
    op.pc = b.pc;
    op.cls = isa::OpClass::Branch;
    op.src1 = pickSource(false, prof.branchDepDistance);

    if (b.patternPeriod > 0) {
        // Loop-style pattern: taken for period-1 executions, then one
        // not-taken, repeating.
        op.taken = b.patternPhase != b.patternPeriod - 1;
        b.patternPhase = (b.patternPhase + 1) % b.patternPeriod;
    } else if (b.correlated) {
        // Outcome follows the parity of the last four branch outcomes
        // (with a little noise): invisible to per-branch predictors but
        // learnable from global history.
        const bool parity =
            __builtin_popcountll(outcomeHistory & 0xF) & 1;
        op.taken = parity != rng.chance(0.05);
    } else {
        op.taken = rng.chance(b.takenBias);
    }
    op.addr = b.target;
    outcomeHistory = (outcomeHistory << 1) | (op.taken ? 1 : 0);

    pc = op.taken ? b.target : b.pc + 4;
    blockRemaining = static_cast<int>(std::max<std::uint64_t>(
        1, sampleDistance(rng, prof.meanBlockSize)));
    return op;
}

isa::MicroOp
SyntheticTraceGenerator::makeOp(isa::OpClass cls)
{
    isa::MicroOp op;
    op.seq = seq++;
    op.pc = pc;
    pc += 4;
    op.cls = cls;

    const bool fp = isa::isFloat(cls);
    switch (cls) {
      case isa::OpClass::Load: {
        op.src1 = pickSource(false, prof.meanDepDistance); // address reg
        op.addr = nextAddress();
        const bool fpDst = rng.chance(prof.fpLoadFraction);
        if (fpDst) {
            op.dst = static_cast<std::int16_t>(64 + nextFpReg);
            nextFpReg = (nextFpReg + 1) % fpRegPool;
            fpRingPos = (fpRingPos + 1) % ringSize;
            fpRing[fpRingPos] = op.dst;
        } else {
            op.dst = static_cast<std::int16_t>(nextIntReg);
            nextIntReg = (nextIntReg + 1) % intRegPool;
            intRingPos = (intRingPos + 1) % ringSize;
            intRing[intRingPos] = op.dst;
        }
        return op;
      }
      case isa::OpClass::Store: {
        const bool fpData = rng.chance(prof.fpLoadFraction);
        op.src1 = pickSource(fpData, prof.meanDepDistance); // data
        op.src2 = pickSource(false, prof.meanDepDistance);  // address
        op.addr = nextAddress();
        return op;
      }
      default:
        break;
    }

    // Register-register operation.
    op.src1 = pickSource(fp, prof.meanDepDistance);
    if (rng.chance(prof.src2Prob))
        op.src2 = pickSource(fp, prof.meanDepDistance);

    if (fp) {
        op.dst = static_cast<std::int16_t>(64 + nextFpReg);
        nextFpReg = (nextFpReg + 1) % fpRegPool;
        fpRingPos = (fpRingPos + 1) % ringSize;
        fpRing[fpRingPos] = op.dst;
    } else {
        op.dst = static_cast<std::int16_t>(nextIntReg);
        nextIntReg = (nextIntReg + 1) % intRegPool;
        intRingPos = (intRingPos + 1) % ringSize;
        intRing[intRingPos] = op.dst;
    }
    return op;
}

isa::MicroOp
SyntheticTraceGenerator::next()
{
    if (blockRemaining <= 0)
        return makeBranch();
    --blockRemaining;

    static const isa::OpClass classes[] = {
        isa::OpClass::IntAlu, isa::OpClass::IntMult, isa::OpClass::FpAdd,
        isa::OpClass::FpMult, isa::OpClass::FpDiv, isa::OpClass::FpSqrt,
        isa::OpClass::Load, isa::OpClass::Store};
    return makeOp(classes[opMix.sample(rng)]);
}

} // namespace fo4::trace

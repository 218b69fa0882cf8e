/**
 * @file
 * Statistical workload profiles — the repo's stand-in for the SPEC
 * CPU2000 binaries the paper simulates (Table 2).
 *
 * The pipeline-depth study depends on workload *characteristics*: how
 * much instruction-level parallelism the dependence structure exposes,
 * how predictable the branches are, and how the memory stream behaves.
 * A profile captures those characteristics; the SyntheticTraceGenerator
 * turns a profile into a concrete, reproducible instruction stream.
 */

#ifndef FO4_TRACE_PROFILE_HH
#define FO4_TRACE_PROFILE_HH

#include <cstdint>
#include <string>

#include "util/status.hh"

namespace fo4::trace
{

/** The three benchmark classes the paper reports separately. */
enum class BenchClass
{
    Integer,
    VectorFp,
    NonVectorFp,
};

const char *benchClassName(BenchClass cls);

/** validate()'s ceilings.  The generator's Zipf tables (a double per
 *  64-byte line and per static branch) live for the process, so a
 *  1 GiB footprint's 128 MiB table is the most one profile may ask for;
 *  Table 2 peaks at 16 MiB and 2,048 branches. */
constexpr std::uint64_t kMaxWorkingSetBytes = std::uint64_t{1} << 30;
constexpr int kMaxStaticBranches = 65536;

/** Statistical description of one benchmark. */
struct BenchmarkProfile
{
    std::string name;
    BenchClass cls = BenchClass::Integer;

    // --- operation mix (weights, normalized by the generator; branches
    //     are generated separately at basic-block boundaries) ---
    double wIntAlu = 1.0;
    double wIntMult = 0.0;
    double wFpAdd = 0.0;
    double wFpMult = 0.0;
    double wFpDiv = 0.0;
    double wFpSqrt = 0.0;
    double wLoad = 0.3;
    double wStore = 0.15;

    // --- dependence structure ---
    /** Mean producer distance of the first source operand: how many
     *  values back in the stream of produced results an instruction's
     *  input typically comes from.  Small = serial code, large = ILP. */
    double meanDepDistance = 3.0;
    /** Minimum producer distance.  Vector code has no short loop-carried
     *  dependences: consecutive iterations are independent, so its
     *  minimum distance is large even when the mean is similar. */
    double minDepDistance = 1.0;
    /** Probability an instruction has a second register source. */
    double src2Prob = 0.5;
    /** Fraction of FP-op sources drawn from the FP result stream. */
    double fpSourceAffinity = 0.9;
    /** Fraction of loads that produce floating-point values. */
    double fpLoadFraction = 0.0;

    // --- control flow ---
    /** Mean non-branch instructions per basic block (geometric). */
    double meanBlockSize = 6.0;
    /** Number of static branch sites (hot set selected by a Zipf walk). */
    int staticBranches = 256;
    /** Fraction of static branches that are strongly biased. */
    double biasedBranchFraction = 0.6;
    /** Taken probability of a strongly biased branch. */
    double strongBias = 0.95;
    /** Fraction of static branches following a short repeating pattern
     *  (captured well by a local-history predictor). */
    double patternBranchFraction = 0.2;
    /** Fraction of static branches whose outcome correlates with recent
     *  global branch history (captured well by a gshare-style global
     *  predictor); the remainder are hard, near-random branches. */
    double correlatedBranchFraction = 0.1;
    /** Probability a strongly biased branch is biased toward taken
     *  (loop back-edges dominate real branch populations). */
    double takenBiasFraction = 0.8;
    /** Mean producer distance of the branch condition operand. */
    double branchDepDistance = 2.0;

    // --- memory behaviour ---
    std::uint64_t workingSetBytes = 1 << 20;
    /** Fraction of memory references that belong to stride streams. */
    double strideFraction = 0.3;
    int strideStreams = 4;
    /** Probability a stream walks in line-sized (64B) rather than
     *  element-sized (8B) strides; line strides miss the DL1 on every
     *  reference. */
    double lineStrideProb = 0.2;
    /** Zipf exponent of the non-streaming reference distribution. */
    double zipfExponent = 0.8;

    /** Seed for the benchmark's instruction stream. */
    std::uint64_t seed = 1;

    /**
     * Check every field range and report all violations at once in the
     * returned Status, so a hand-written profile can be fixed in one
     * pass rather than one abort at a time.
     */
    util::Status validate() const;

    /** Throw ConfigError (with the full violation list) if invalid. */
    void validateOrThrow() const;

    /**
     * Canonical rendering of every field that shapes the generated
     * instruction stream, doubles in hexfloat so no precision is lost.
     * Two profiles with equal keys generate identical streams; used as
     * the DecodedTrace registry key.
     */
    std::string identityKey() const;
};

} // namespace fo4::trace

#endif // FO4_TRACE_PROFILE_HH

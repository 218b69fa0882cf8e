#include "trace/profile.hh"

#include "util/frame.hh"
#include "util/status.hh"

namespace fo4::trace
{

const char *
benchClassName(BenchClass cls)
{
    switch (cls) {
      case BenchClass::Integer:
        return "integer";
      case BenchClass::VectorFp:
        return "vector-fp";
      case BenchClass::NonVectorFp:
        return "non-vector-fp";
    }
    return "?";
}

util::Status
BenchmarkProfile::validate() const
{
    util::ErrorCollector errs;
    if (name.empty())
        errs.addf("profile has no name");
    const double mix = wIntAlu + wIntMult + wFpAdd + wFpMult + wFpDiv +
                       wFpSqrt + wLoad + wStore;
    if (mix <= 0.0)
        errs.addf("empty op mix (weights sum to %g)", mix);
    if (meanDepDistance < 1.0)
        errs.addf("meanDepDistance %g below 1", meanDepDistance);
    if (meanBlockSize < 1.0)
        errs.addf("meanBlockSize %g below 1", meanBlockSize);
    if (staticBranches < 1)
        errs.addf("staticBranches %d below 1", staticBranches);
    if (staticBranches > kMaxStaticBranches)
        errs.addf("staticBranches %d above %d", staticBranches,
                  kMaxStaticBranches);
    if (src2Prob < 0.0 || src2Prob > 1.0)
        errs.addf("src2Prob %g outside [0, 1]", src2Prob);
    if (strideFraction < 0.0 || strideFraction > 1.0)
        errs.addf("strideFraction %g outside [0, 1]", strideFraction);
    if (biasedBranchFraction + patternBranchFraction +
            correlatedBranchFraction >
        1.0 + 1e-9) {
        errs.addf("branch fractions sum to %g, above 1",
                  biasedBranchFraction + patternBranchFraction +
                      correlatedBranchFraction);
    }
    if (workingSetBytes < 64) {
        errs.addf("working set of %llu bytes is smaller than one cache "
                  "line",
                  static_cast<unsigned long long>(workingSetBytes));
    }
    if (workingSetBytes > kMaxWorkingSetBytes) {
        errs.addf("working set of %llu bytes is above the 1 GiB limit",
                  static_cast<unsigned long long>(workingSetBytes));
    }
    return errs.status(util::ErrorCode::InvalidConfig);
}

std::string
BenchmarkProfile::identityKey() const
{
    util::IdentityHasher h;
    h.s(name);
    h.i(static_cast<int>(cls));
    for (const double d :
         {wIntAlu, wIntMult, wFpAdd, wFpMult, wFpDiv, wFpSqrt, wLoad,
          wStore, meanDepDistance, minDepDistance, src2Prob,
          fpSourceAffinity, fpLoadFraction, meanBlockSize})
        h.d(d);
    h.i(staticBranches);
    for (const double d :
         {biasedBranchFraction, strongBias, patternBranchFraction,
          correlatedBranchFraction, takenBiasFraction, branchDepDistance})
        h.d(d);
    h.u(workingSetBytes);
    h.d(strideFraction);
    h.i(strideStreams);
    h.d(lineStrideProb);
    h.d(zipfExponent);
    h.u(seed);
    return h.rendering();
}

void
BenchmarkProfile::validateOrThrow() const
{
    if (const auto st = validate(); !st.isOk()) {
        throw util::ConfigError(
            util::strprintf("profile '%s': %s", name.c_str(),
                            st.message().c_str()));
    }
}

} // namespace fo4::trace

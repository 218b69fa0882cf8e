/**
 * @file
 * The one table of command-line keys the benches, examples and daemons
 * share: one KeyDoc and one validated parse per key, so a key means the
 * same thing everywhere.  Integer keys are range-checked before their
 * cast (instructions, jobs and attempts >= 1; the rest >= 0).
 */

#ifndef FO4_STUDY_RUN_KEYS_HH
#define FO4_STUDY_RUN_KEYS_HH

#include <climits>

#include "study/montecarlo.hh"
#include "util/config.hh"

namespace fo4::study
{

/** The non-empty items of a comma list. */
std::vector<std::string> splitList(const std::string &text);

/** A program's one key list: the named shared keys' KeyDocs, then `own`;
 *  it drives --help, the spell check and RunArgs. */
std::vector<util::KeyDoc> runKeys(std::initializer_list<const char *> shared,
                                  std::vector<util::KeyDoc> own = {});

/** A command line read against a key list: construction warns about
 *  unknown keys; an accessor reads a shared key only if it is listed. */
class RunArgs
{
  public:
    RunArgs(int argc, const char *const *argv,
            const std::vector<util::KeyDoc> &keys);
    const util::Config &config() const { return all; }

    /** `defaults` with the run-length, model, predictor and sim_impl keys
     *  applied and validated.  Without warmup=, a nonzero divisor makes
     *  the warmup instructions / warmupDivisor. */
    RunSpec spec(RunSpec defaults, std::uint64_t warmupDivisor = 0) const;
    int jobs() const ///< 1 when absent
    {
        return static_cast<int>(cfg.getIntIn("jobs", 1, 1, INT_MAX));
    }
    /** class=, else bench= or `fallback` (comma lists of profiles). */
    std::vector<trace::BenchmarkProfile>
    profiles(const std::string &fallback) const;
    trace::BenchmarkProfile profile(const std::string &fallback) const;
    /** A comma list of numbers (t_useful=, depths=, mc_sigma_scale=);
     *  number() takes one, so it refuses a list. */
    std::vector<double> numbers(const char *key,
                                std::vector<double> fallback) const;
    double number(const char *key, double fallback) const
    {
        return cfg.getDouble(key, fallback);
    }
    /** `defaults` with the mc_* keys applied. */
    VariationModel variation(VariationModel defaults) const;
    /** jobs=, checkpoint= (plus `suffix`) and attempts= as runner
     *  options; resume=0 deletes that journal here. */
    CheckpointOptions checkpointOptions(const std::string &suffix = "") const;

  private:
    util::Config all; ///< the whole command line
    util::Config cfg; ///< only the listed keys
};

} // namespace fo4::study

#endif // FO4_STUDY_RUN_KEYS_HH

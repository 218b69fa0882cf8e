#include "study/run_keys.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "study/goldengen.hh"
#include "util/logging.hh"

namespace fo4::study
{

namespace
{

const util::KeyDoc kTable[] = {
    {"instructions", "measured instructions per benchmark (>= 1)"},
    {"warmup", "instructions simulated but discarded first (>= 0)"},
    {"prewarm", "instructions streamed through caches/predictor first"},
    {"cycle_limit", "watchdog budget in cycles (0 = core default)"},
    {"model", "core model: ooo | inorder"},
    {"predictor", "branch predictor (tournament, gshare, local, ...)"},
    {"sim_impl", "core implementation: batched | reference (same bytes)"},
    {"jobs", "worker threads (1 = serial; must be >= 1)"},
    {"bench", "SPEC 2000 profile, or a comma list where several run"},
    {"class", "run a whole class: integer | vfp | nvfp | all"},
    {"t_useful", "useful FO4 per stage, or a comma list to sweep"},
    {"depths", "comma list of t_useful sweep points, FO4"},
    {"overhead", "clocking overhead per stage, FO4"},
    {"mc_samples", "Monte Carlo dice per point (0 = deterministic sweep)"},
    {"mc_dist", "per-stage draw family: normal | lognormal"},
    {"mc_sigma_latch", "per-stage latch overhead sigma"},
    {"mc_sigma_skew", "per-stage clock skew sigma"},
    {"mc_sigma_jitter", "per-stage clock jitter sigma"},
    {"mc_sigma_die", "die-level systematic corner sigma"},
    {"mc_seed", "root seed of the sampling streams"},
    {"mc_sigma_scale", "comma list of sigma multipliers, one optimum each"},
    {"checkpoint", "journal file; an interrupted sweep resumes from it"},
    {"resume", "resume=0 discards an existing journal and starts over"},
    {"attempts", "max attempts per cell for transient failures"},
};

} // namespace

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::stringstream in(text);
    for (std::string item; std::getline(in, item, ',');) {
        if (!item.empty())
            items.push_back(item);
    }
    return items;
}

std::vector<util::KeyDoc>
runKeys(std::initializer_list<const char *> shared,
        std::vector<util::KeyDoc> own)
{
    std::vector<util::KeyDoc> keys;
    for (const char *name : shared) {
        const auto *doc = std::find_if(
            std::begin(kTable), std::end(kTable),
            [name](const auto &k) { return std::strcmp(k.key, name) == 0; });
        FO4_ASSERT(doc != std::end(kTable), "no shared key '%s'", name);
        keys.push_back(*doc);
    }
    keys.insert(keys.end(), own.begin(), own.end());
    return keys;
}

RunArgs::RunArgs(int argc, const char *const *argv,
                 const std::vector<util::KeyDoc> &keys)
    : all(util::Config::fromArgs(argc, argv))
{
    all.checkKnown(keys);
    for (const util::KeyDoc &k : keys) {
        if (all.has(k.key))
            cfg.set(k.key, all.getString(k.key, ""));
    }
}

RunSpec
RunArgs::spec(RunSpec s, std::uint64_t warmupDivisor) const
{
    s.instructions =
        cfg.getIntIn("instructions", s.instructions, 1, INT64_MAX);
    if (warmupDivisor != 0)
        s.warmup = s.instructions / warmupDivisor;
    s.warmup = cfg.getIntIn("warmup", s.warmup, 0, INT64_MAX);
    s.prewarm = cfg.getIntIn("prewarm", s.prewarm, 0, INT64_MAX);
    s.cycleLimit = cfg.getIntIn("cycle_limit", s.cycleLimit, 0, INT64_MAX);
    s.predictor = cfg.getString("predictor", s.predictor);
    if (cfg.has("model"))
        s.model = coreModelFromName(cfg.getString("model", ""));
    if (cfg.has("sim_impl"))
        s.impl = simImplFromName(cfg.getString("sim_impl", ""));
    if (const util::Status st = s.validate(); !st.isOk())
        throw util::ConfigError("run spec: " + st.message());
    return s;
}

std::vector<trace::BenchmarkProfile>
RunArgs::profiles(const std::string &fallback) const
{
    if (cfg.has("class")) {
        const std::string c = cfg.getString("class", "");
        return c == "all" ? trace::spec2000Profiles()
                          : trace::spec2000Profiles(benchClassFromName(
                                c == "vfp"    ? "vector-fp"
                                : c == "nvfp" ? "non-vector-fp"
                                              : c));
    }
    std::vector<trace::BenchmarkProfile> out;
    for (const auto &name : splitList(cfg.getString("bench", fallback)))
        out.push_back(trace::spec2000Profile(name));
    if (out.empty())
        throw util::ConfigError("bench= names no profile");
    return out;
}

trace::BenchmarkProfile
RunArgs::profile(const std::string &fallback) const
{
    const auto list = profiles(fallback);
    if (list.size() != 1)
        throw util::ConfigError("this program takes one bench= profile");
    return list.front();
}

std::vector<double>
RunArgs::numbers(const char *key, std::vector<double> fallback) const
{
    if (!cfg.has(key))
        return fallback;
    std::vector<double> out;
    for (const std::string &item : splitList(cfg.getString(key, ""))) {
        char *end = nullptr;
        out.push_back(std::strtod(item.c_str(), &end));
        if (*end != '\0')
            throw util::ConfigError(util::strprintf(
                "%s= entry '%s' is not a number", key, item.c_str()));
    }
    if (out.empty())
        throw util::ConfigError(util::strprintf("%s= is empty", key));
    return out;
}

VariationModel
RunArgs::variation(VariationModel v) const
{
    if (cfg.has("mc_dist"))
        v.dist = mcDistFromName(cfg.getString("mc_dist", ""));
    v.sigmaLatch = number("mc_sigma_latch", v.sigmaLatch);
    v.sigmaSkew = number("mc_sigma_skew", v.sigmaSkew);
    v.sigmaJitter = number("mc_sigma_jitter", v.sigmaJitter);
    v.sigmaDie = number("mc_sigma_die", v.sigmaDie);
    v.seed = cfg.getIntIn("mc_seed", v.seed, 0, INT64_MAX);
    v.samples = static_cast<int>(
        cfg.getIntIn("mc_samples", v.samples, 0, INT_MAX));
    return v;
}

CheckpointOptions
RunArgs::checkpointOptions(const std::string &suffix) const
{
    CheckpointOptions options;
    options.threads = jobs();
    if (cfg.has("checkpoint"))
        options.journalPath = cfg.getString("checkpoint", "") + suffix;
    if (!cfg.getBool("resume", true) && !options.journalPath.empty())
        std::remove(options.journalPath.c_str());
    options.retry.maxAttempts =
        static_cast<int>(cfg.getIntIn("attempts", 1, 1, INT_MAX));
    return options;
}

} // namespace fo4::study

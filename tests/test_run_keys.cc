/**
 * @file
 * Tests for the shared command-line key table (study/run_keys.hh): one
 * KeyDoc per key, one meaning per key, and one refusal per value a
 * key's range or cast cannot hold — each a typed ConfigError, never a
 * wrapped or truncated number.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "study/run_keys.hh"
#include "util/status.hh"

using namespace fo4;

namespace
{

/** Every shared key, as a program that takes all of them lists them. */
const std::vector<util::KeyDoc> kAll = study::runKeys(
    {"instructions", "warmup", "prewarm", "cycle_limit", "model",
     "predictor", "sim_impl", "jobs", "bench", "class", "t_useful",
     "depths", "overhead", "mc_samples", "mc_dist", "mc_sigma_latch",
     "mc_sigma_skew", "mc_sigma_jitter", "mc_sigma_die", "mc_seed",
     "mc_sigma_scale", "checkpoint", "resume", "attempts"});

study::RunArgs
argsOf(std::vector<std::string> tokens,
       const std::vector<util::KeyDoc> &keys = kAll)
{
    std::vector<const char *> argv{"program"};
    for (const std::string &t : tokens)
        argv.push_back(t.c_str());
    return study::RunArgs(static_cast<int>(argv.size()), argv.data(), keys);
}

/** Read every shared key the way a program would. */
void
readAll(const study::RunArgs &args)
{
    (void)args.spec({});
    (void)args.jobs();
    (void)args.profile("164.gzip");
    (void)args.number("t_useful", 6);
    (void)args.numbers("depths", {6, 8});
    (void)args.number("overhead", 1.8);
    (void)args.variation({});
    (void)args.checkpointOptions();
}

} // namespace

TEST(RunKeys, DocumentsEachKeyOnceInTheOrderNamed)
{
    const auto keys = study::runKeys({"jobs", "instructions"},
                                     {{"csv", "own key"}});
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_STREQ(keys[0].key, "jobs");
    EXPECT_STREQ(keys[1].key, "instructions");
    EXPECT_STREQ(keys[2].key, "csv");
    EXPECT_STREQ(keys[0].help, "worker threads (1 = serial; must be >= 1)");
    EXPECT_DEATH((void)study::runKeys({"instructons"}), "instructons");
}

TEST(RunArgs, DefaultsPassThroughAndKeysOverrideThem)
{
    const study::RunSpec defaults{
        .instructions = 60000, .warmup = 8000, .prewarm = 400000};
    const study::RunSpec plain = argsOf({}).spec(defaults);
    EXPECT_EQ(plain.instructions, 60000u);
    EXPECT_EQ(plain.warmup, 8000u);
    EXPECT_EQ(plain.prewarm, 400000u);

    const auto args = argsOf({"instructions=16000", "prewarm=0",
                              "model=inorder", "sim_impl=batched",
                              "jobs=3", "t_useful=8,6"});
    const study::RunSpec spec = args.spec(defaults);
    EXPECT_EQ(spec.instructions, 16000u);
    EXPECT_EQ(spec.warmup, 8000u);
    EXPECT_EQ(spec.prewarm, 0u);
    EXPECT_EQ(spec.model, study::CoreModel::InOrder);
    EXPECT_EQ(spec.impl, study::SimImpl::Batched);
    EXPECT_EQ(args.jobs(), 3);
    EXPECT_EQ(args.numbers("t_useful", {}), (std::vector<double>{8, 6}));
}

TEST(RunArgs, WarmupDivisorYieldsToAnExplicitWarmup)
{
    EXPECT_EQ(argsOf({"instructions=16000"}).spec({}, 8).warmup, 2000u);
    EXPECT_EQ(argsOf({"instructions=16000", "warmup=7"}).spec({}, 8).warmup,
              7u);
}

TEST(RunArgs, KeysAProgramDoesNotListAreIgnored)
{
    // A program without jobs= in its list warns about jobs=0 and runs
    // serially; it never reads the value.
    const auto args =
        argsOf({"jobs=0", "warmup=-1"}, study::runKeys({"instructions"}));
    EXPECT_EQ(args.jobs(), 1);
    EXPECT_EQ(args.spec({.warmup = 5}).warmup, 5u);
}

TEST(RunArgs, ProfilesTakeAClassOrACommaList)
{
    EXPECT_EQ(argsOf({"bench=164.gzip,181.mcf"}).profiles("176.gcc").size(),
              2u);
    EXPECT_EQ(argsOf({}).profiles("176.gcc").front().name, "176.gcc");
    EXPECT_EQ(argsOf({"class=integer"}).profiles("176.gcc").size(),
              trace::spec2000Profiles(trace::BenchClass::Integer).size());
}

TEST(RunArgs, CheckpointOptionsCarryJobsJournalAndAttempts)
{
    const auto options = argsOf({"jobs=2", "checkpoint=/nonexistent/j",
                                 "attempts=3"})
                             .checkpointOptions(".scale1");
    EXPECT_EQ(options.threads, 2);
    EXPECT_EQ(options.journalPath, "/nonexistent/j.scale1");
    EXPECT_EQ(options.retry.maxAttempts, 3);
}

/** One refused command line: a value the key's range or cast cannot
 *  hold, or a list where the program takes one value. */
struct Refusal
{
    const char *name;
    std::vector<std::string> tokens;
};

void
PrintTo(const Refusal &refusal, std::ostream *os)
{
    *os << refusal.name;
}

class RefusedValue : public ::testing::TestWithParam<Refusal>
{
};

TEST_P(RefusedValue, IsATypedInvalidConfig)
{
    try {
        readAll(argsOf(GetParam().tokens));
        FAIL() << "accepted";
    } catch (const util::ConfigError &e) {
        EXPECT_EQ(e.code(), util::ErrorCode::InvalidConfig) << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    RunArgs, RefusedValue,
    ::testing::Values(
        Refusal{"instructions_zero", {"instructions=0"}},
        Refusal{"instructions_negative", {"instructions=-1"}},
        Refusal{"instructions_beyond_64_bits",
                {"instructions=99999999999999999999"}},
        Refusal{"warmup_negative", {"warmup=-1"}},
        Refusal{"prewarm_negative", {"prewarm=-1"}},
        Refusal{"cycle_limit_negative", {"cycle_limit=-1"}},
        Refusal{"run_lengths_that_wrap",
                {"instructions=9223372036854775807",
                 "warmup=9223372036854775807",
                 "prewarm=9223372036854775807"}},
        Refusal{"jobs_zero", {"jobs=0"}},
        Refusal{"jobs_negative", {"jobs=-3"}},
        Refusal{"jobs_beyond_int", {"jobs=2147483648"}},
        Refusal{"attempts_zero", {"attempts=0"}},
        Refusal{"mc_samples_negative", {"mc_samples=-1"}},
        Refusal{"mc_seed_negative", {"mc_seed=-1"}},
        Refusal{"model_unknown", {"model=inordr"}},
        Refusal{"predictor_unknown", {"predictor=zzz"}},
        Refusal{"bench_list_where_one_is_taken",
                {"bench=164.gzip,181.mcf"}},
        Refusal{"t_useful_list_where_one_is_taken", {"t_useful=6,8"}},
        Refusal{"depths_not_a_number", {"depths=6,eight"}},
        Refusal{"depths_empty", {"depths=,"}},
        Refusal{"resume_not_a_boolean",
                {"checkpoint=/nonexistent/j", "resume=maybe"}}),
    [](const ::testing::TestParamInfo<Refusal> &info) {
        return std::string(info.param.name);
    });

TEST(ConfigBounds, PortsAndCapsAreCheckedBeforeTheirCast)
{
    util::Config cfg;
    cfg.set("port", "70000");
    cfg.set("quota", "-1");
    EXPECT_THROW((void)cfg.getIntIn("port", 0, 0, UINT16_MAX),
                 util::ConfigError);
    EXPECT_THROW((void)cfg.getIntIn("quota", 0, 0, INT64_MAX),
                 util::ConfigError);
    EXPECT_EQ(cfg.getIntIn("absent", -5, 0, 10), -5);
}

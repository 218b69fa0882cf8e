/**
 * @file
 * Tests for the synthetic trace generator and the SPEC 2000 profile set:
 * reproducibility, statistical properties, dependence structure and
 * address behaviour.
 */

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/metrics.hh"

using namespace fo4::trace;
using fo4::isa::MicroOp;
using fo4::isa::OpClass;

namespace
{

BenchmarkProfile
testProfile()
{
    BenchmarkProfile p;
    p.name = "test";
    p.seed = 42;
    return p;
}

/** Every MicroOp field, for whole-op comparisons. */
auto
fields(const MicroOp &op)
{
    return std::tuple(op.seq, op.pc, op.cls, op.src1, op.src2, op.dst,
                      op.addr, op.taken);
}

std::vector<MicroOp>
take(SyntheticTraceGenerator &gen, int n)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(gen.next());
    return ops;
}

void
expectSameStream(const std::vector<MicroOp> &got,
                 const std::vector<MicroOp> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(fields(got[i]), fields(want[i])) << "op " << i;
}

} // namespace

TEST(Generator, DeterministicAcrossInstances)
{
    const auto prof = testProfile();
    SyntheticTraceGenerator a(prof), b(prof);
    for (int i = 0; i < 5000; ++i) {
        const MicroOp x = a.next();
        const MicroOp y = b.next();
        EXPECT_EQ(x.seq, y.seq);
        EXPECT_EQ(x.cls, y.cls);
        EXPECT_EQ(x.src1, y.src1);
        EXPECT_EQ(x.src2, y.src2);
        EXPECT_EQ(x.dst, y.dst);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.taken, y.taken);
    }
}

TEST(Generator, ResetRewindsExactly)
{
    // reset() keeps the samplers and redraws only the mutable state, so
    // both passes must match a fresh generator in every field.
    for (const auto &prof : spec2000Profiles()) {
        SCOPED_TRACE(prof.name);
        SyntheticTraceGenerator gen(prof);
        const auto first = take(gen, 50000);
        gen.reset();
        const auto second = take(gen, 50000);
        SyntheticTraceGenerator fresh(prof);
        const auto want = take(fresh, 50000);
        expectSameStream(first, want);
        expectSameStream(second, want);
    }
}

TEST(Generator, ConcurrentFirstBuildsShareTablesAndStreams)
{
    // Both of this profile's Zipf keys — (777 branches, 0.9) and
    // (3001 lines, 0.8125) — are used by no other test.
    auto prof = testProfile();
    prof.staticBranches = 777;
    prof.workingSetBytes = 3001 * 64;
    prof.zipfExponent = 0.8125;
    const bool wasEnabled = fo4::util::setMetricsEnabled(true);
    auto &built = fo4::util::MetricsRegistry::global().counter(
        "util.zipf_table.built");
    const std::uint64_t before = built.value();

    constexpr int kThreads = 8;
    std::vector<std::vector<MicroOp>> streams(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            SyntheticTraceGenerator gen(prof);
            streams[t] = take(gen, 5000);
        });
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(built.value() - before, 2u);
    for (int t = 1; t < kThreads; ++t) {
        SCOPED_TRACE(t);
        expectSameStream(streams[t], streams[0]);
    }
    fo4::util::setMetricsEnabled(wasEnabled);
}

TEST(Profile, OversizedTablesAreRefusedWithOtherViolations)
{
    // validate() only: an over-bound profile is never generated.
    auto prof = testProfile();
    prof.workingSetBytes = kMaxWorkingSetBytes;
    prof.staticBranches = kMaxStaticBranches;
    EXPECT_TRUE(prof.validate().isOk());

    prof.workingSetBytes = kMaxWorkingSetBytes + 64;
    prof.staticBranches = kMaxStaticBranches + 1;
    prof.meanBlockSize = 0.5;
    const auto st = prof.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), fo4::util::ErrorCode::InvalidConfig);
    EXPECT_NE(st.message().find("above the 1 GiB limit"), std::string::npos);
    EXPECT_NE(st.message().find("staticBranches 65537 above 65536"),
              std::string::npos);
    EXPECT_NE(st.message().find("meanBlockSize"), std::string::npos);
    EXPECT_THROW(prof.validateOrThrow(), fo4::util::ConfigError);
}

TEST(Generator, SequenceNumbersAreContiguous)
{
    SyntheticTraceGenerator gen(testProfile());
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(gen.next().seq, i);
}

TEST(Generator, BlockSizeMatchesProfile)
{
    auto prof = testProfile();
    prof.meanBlockSize = 8.0;
    SyntheticTraceGenerator gen(prof);
    std::uint64_t branches = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        branches += gen.next().isBranch();
    const double mean_block =
        static_cast<double>(n - branches) / static_cast<double>(branches);
    EXPECT_NEAR(mean_block, 8.0, 0.8);
}

TEST(Generator, OpMixMatchesProfile)
{
    auto prof = testProfile();
    prof.wIntAlu = 0.5;
    prof.wLoad = 0.3;
    prof.wStore = 0.2;
    prof.wIntMult = 0.0;
    SyntheticTraceGenerator gen(prof);
    std::map<OpClass, int> counts;
    int nonBranch = 0;
    for (int i = 0; i < 100000; ++i) {
        const MicroOp op = gen.next();
        if (op.isBranch())
            continue;
        ++counts[op.cls];
        ++nonBranch;
    }
    EXPECT_NEAR(counts[OpClass::IntAlu] / double(nonBranch), 0.5, 0.02);
    EXPECT_NEAR(counts[OpClass::Load] / double(nonBranch), 0.3, 0.02);
    EXPECT_NEAR(counts[OpClass::Store] / double(nonBranch), 0.2, 0.02);
    EXPECT_EQ(counts[OpClass::FpAdd], 0);
}

TEST(Generator, LoadsCarryAddressesAndDest)
{
    SyntheticTraceGenerator gen(testProfile());
    int loads = 0;
    for (int i = 0; i < 20000 && loads < 500; ++i) {
        const MicroOp op = gen.next();
        if (!op.isLoad())
            continue;
        ++loads;
        EXPECT_NE(op.addr, 0u);
        EXPECT_NE(op.dst, fo4::isa::noReg);
        EXPECT_NE(op.src1, fo4::isa::noReg);
    }
    EXPECT_GE(loads, 500);
}

TEST(Generator, StoresHaveNoDest)
{
    SyntheticTraceGenerator gen(testProfile());
    int stores = 0;
    for (int i = 0; i < 20000 && stores < 500; ++i) {
        const MicroOp op = gen.next();
        if (!op.isStore())
            continue;
        ++stores;
        EXPECT_EQ(op.dst, fo4::isa::noReg);
        EXPECT_NE(op.src1, fo4::isa::noReg);
        EXPECT_NE(op.src2, fo4::isa::noReg);
    }
}

TEST(Generator, BranchOutcomeMatchesTakenField)
{
    // Taken branches redirect the following PC; not-taken fall through.
    SyntheticTraceGenerator gen(testProfile());
    MicroOp prev = gen.next();
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = gen.next();
        if (prev.isBranch()) {
            if (prev.taken)
                EXPECT_EQ(op.pc, prev.addr);
            else
                EXPECT_EQ(op.pc, prev.pc + 4);
        }
        prev = op;
    }
}

TEST(Generator, MinimumDependenceDistanceHolds)
{
    auto prof = testProfile();
    prof.meanDepDistance = 12.0;
    prof.minDepDistance = 8.0;
    prof.wLoad = 0.0;
    prof.wStore = 0.0;
    prof.src2Prob = 0.0;
    SyntheticTraceGenerator gen(prof);

    // Track the most recent producer sequence of every register; the gap
    // between a consumer and its source's producer must respect the
    // minimum (in producer count).
    std::map<int, std::uint64_t> producerIndex; // reg -> producer ordinal
    std::uint64_t producers = 0;
    int checked = 0;
    for (int i = 0; i < 50000; ++i) {
        const MicroOp op = gen.next();
        if (op.src1 != fo4::isa::noReg && producerIndex.count(op.src1) &&
            producers > 64) {
            const std::uint64_t gap = producers - producerIndex[op.src1];
            EXPECT_GE(gap, 8u) << "at op " << i;
            ++checked;
        }
        if (op.dst != fo4::isa::noReg) {
            producerIndex[op.dst] = producers;
            ++producers;
        }
    }
    EXPECT_GT(checked, 1000);
}

TEST(Generator, WorkingSetBoundsZipfAddresses)
{
    auto prof = testProfile();
    prof.strideFraction = 0.0;
    prof.workingSetBytes = 64 * 1024;
    SyntheticTraceGenerator gen(prof);
    for (int i = 0; i < 50000; ++i) {
        const MicroOp op = gen.next();
        if (!fo4::isa::isMemory(op.cls))
            continue;
        EXPECT_GE(op.addr, 0x20000000u);
        EXPECT_LT(op.addr, 0x20000000u + prof.workingSetBytes + 64);
    }
}

TEST(Generator, StrideStreamsAdvanceMonotonically)
{
    auto prof = testProfile();
    prof.strideFraction = 1.0;
    prof.strideStreams = 1;
    prof.lineStrideProb = 0.0;
    SyntheticTraceGenerator gen(prof);
    std::uint64_t last = 0;
    int seen = 0;
    for (int i = 0; i < 5000; ++i) {
        const MicroOp op = gen.next();
        if (!fo4::isa::isMemory(op.cls))
            continue;
        if (seen > 0 && op.addr > last) {
            EXPECT_EQ(op.addr - last, 8u);
        }
        last = op.addr;
        ++seen;
    }
    EXPECT_GT(seen, 1000);
}

TEST(Spec2000, HasEighteenProfilesInThreeClasses)
{
    const auto all = spec2000Profiles();
    EXPECT_EQ(all.size(), 18u);
    EXPECT_EQ(spec2000Profiles(BenchClass::Integer).size(), 9u);
    EXPECT_EQ(spec2000Profiles(BenchClass::VectorFp).size(), 4u);
    EXPECT_EQ(spec2000Profiles(BenchClass::NonVectorFp).size(), 5u);
}

TEST(Spec2000, NamesMatchPaperTableTwo)
{
    const char *expected[] = {
        "164.gzip", "175.vpr", "176.gcc", "181.mcf", "197.parser",
        "252.eon", "253.perlbmk", "256.bzip2", "300.twolf", "171.swim",
        "172.mgrid", "173.applu", "183.equake", "177.mesa", "178.galgel",
        "179.art", "188.ammp", "189.lucas"};
    const auto all = spec2000Profiles();
    ASSERT_EQ(all.size(), std::size(expected));
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].name, expected[i]);
}

TEST(Spec2000, LookupByFullOrShortName)
{
    EXPECT_EQ(spec2000Profile("164.gzip").name, "164.gzip");
    EXPECT_EQ(spec2000Profile("gzip").name, "164.gzip");
    EXPECT_EQ(spec2000Profile("swim").cls, BenchClass::VectorFp);
}

TEST(Spec2000, VectorProfilesHaveMoreIlp)
{
    // The class distinction the paper relies on: vector FP exposes far
    // longer dependence distances than integer codes.
    double intMax = 0, vecMin = 1e9;
    for (const auto &p : spec2000Profiles()) {
        if (p.cls == BenchClass::Integer)
            intMax = std::max(intMax, p.meanDepDistance);
        if (p.cls == BenchClass::VectorFp)
            vecMin = std::min(vecMin, p.meanDepDistance);
    }
    EXPECT_GT(vecMin, intMax);
}

TEST(Spec2000, SeedsAreUnique)
{
    std::set<std::uint64_t> seeds;
    for (const auto &p : spec2000Profiles())
        seeds.insert(p.seed);
    EXPECT_EQ(seeds.size(), 18u);
}

TEST(Spec2000, AllProfilesValidate)
{
    for (const auto &p : spec2000Profiles())
        EXPECT_TRUE(p.validate().isOk()) << p.validate().toString();
}

TEST(Spec2000, AllProfilesGenerate)
{
    for (const auto &p : spec2000Profiles()) {
        SyntheticTraceGenerator gen(p);
        for (int i = 0; i < 1000; ++i)
            gen.next();
    }
    SUCCEED();
}

TEST(VectorTrace, CyclesAndRenumbers)
{
    MicroOp a;
    a.cls = OpClass::IntAlu;
    MicroOp b;
    b.cls = OpClass::Load;
    VectorTrace trace({a, b});
    EXPECT_EQ(trace.next().cls, OpClass::IntAlu);
    EXPECT_EQ(trace.next().cls, OpClass::Load);
    const MicroOp third = trace.next();
    EXPECT_EQ(third.cls, OpClass::IntAlu); // wrapped
    EXPECT_EQ(third.seq, 2u);              // but renumbered
}

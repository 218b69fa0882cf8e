/**
 * @file
 * Tests for trace-file recording and replay: recordTrace() writes a
 * capture, and RecordedTrace (what openTraceFile() returns) replays it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/core.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "trace/spec2000.hh"
#include "util/status.hh"

using namespace fo4::trace;
using fo4::util::ErrorCode;
using fo4::util::TraceError;

namespace
{

/** Temporary file path scoped to a test. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "/" + name)
    {
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(FileTrace, RoundTripsExactly)
{
    TempFile tmp("roundtrip.fo4cap");
    auto prof = spec2000Profile("164.gzip");
    SyntheticTraceGenerator gen(prof);
    recordTrace(tmp.path(), gen, 5000);

    RecordedTrace replay(tmp.path());
    ASSERT_EQ(replay.recordedInstructions(), 5000u);

    gen.reset();
    for (int i = 0; i < 5000; ++i) {
        const auto a = gen.next();
        const auto b = replay.next();
        ASSERT_EQ(a.seq, b.seq) << "at " << i;
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.cls, b.cls);
        ASSERT_EQ(a.src1, b.src1);
        ASSERT_EQ(a.src2, b.src2);
        ASSERT_EQ(a.dst, b.dst);
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.taken, b.taken);
    }
}

TEST(FileTrace, CyclesWithRenumberedSequence)
{
    TempFile tmp("cycle.fo4cap");
    auto prof = spec2000Profile("171.swim");
    SyntheticTraceGenerator gen(prof);
    recordTrace(tmp.path(), gen, 100);

    RecordedTrace replay(tmp.path());
    for (std::uint64_t i = 0; i < 250; ++i)
        EXPECT_EQ(replay.next().seq, i);
}

TEST(FileTrace, ResetRewinds)
{
    TempFile tmp("reset.fo4cap");
    auto prof = spec2000Profile("176.gcc");
    SyntheticTraceGenerator gen(prof);
    recordTrace(tmp.path(), gen, 200);

    RecordedTrace replay(tmp.path());
    const auto first = replay.next();
    for (int i = 0; i < 57; ++i)
        replay.next();
    replay.reset();
    const auto again = replay.next();
    EXPECT_EQ(first.pc, again.pc);
    EXPECT_EQ(first.cls, again.cls);
    EXPECT_EQ(first.addr, again.addr);
}

TEST(FileTrace, RejectsGarbageFiles)
{
    TempFile tmp("garbage.fo4cap");
    std::FILE *f = std::fopen(tmp.path().c_str(), "wb");
    std::fputs("this is definitely not a trace file", f);
    std::fclose(f);
    try {
        RecordedTrace t(tmp.path());
        FAIL() << "garbage file accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceFormat);
        EXPECT_NE(std::string(e.what()).find("not a fo4pipe capture"),
                  std::string::npos);
    }
}

TEST(FileTrace, RejectsMissingFiles)
{
    try {
        RecordedTrace t("/nonexistent/path/x.fo4cap");
        FAIL() << "missing file accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIo);
    }
}

TEST(FileTrace, LoadReturnsStatusInsteadOfThrowing)
{
    const auto missing = RecordedTrace::load("/nonexistent/path/x.fo4cap");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), ErrorCode::TraceIo);

    TempFile tmp("load_ok.fo4cap");
    auto prof = spec2000Profile("164.gzip");
    SyntheticTraceGenerator gen(prof);
    recordTrace(tmp.path(), gen, 64);
    auto loaded = RecordedTrace::load(tmp.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().recordedInstructions(), 64u);
}

TEST(FileTrace, DrivesTheCore)
{
    // A recorded trace must produce the same simulation results as the
    // live generator it captured.
    TempFile tmp("sim.fo4cap");
    auto prof = spec2000Profile("300.twolf");
    SyntheticTraceGenerator gen(prof);
    recordTrace(tmp.path(), gen, 30000);

    auto core = fo4::core::makeOooCore(
        fo4::core::CoreParams::alpha21264(), "tournament");
    gen.reset();
    const auto live = core->run(gen, 20000);

    RecordedTrace replay(tmp.path());
    const auto replayed = core->run(replay, 20000);

    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.mispredicts, replayed.mispredicts);
    EXPECT_EQ(live.dl1Misses, replayed.dl1Misses);
}

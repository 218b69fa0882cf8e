/**
 * @file
 * One adversarial corpus against the durable-bytes module
 * (util/frame.hh), which every journal, capture, result-store blob and
 * wire frame goes through: a framed file truncated at every byte, every
 * bit flipped, length words at and just past each format's bounds, and
 * disk faults injected into the atomic publisher.  Every case must land
 * on exactly one verdict — torn tail with the intact prefix, corrupt,
 * or oversize — and none may crash, yield a wrong byte, or leave a
 * published file after a fault.
 *
 * The PinnedBytes cases decode committed fixtures written by an earlier
 * build (tests/data/pinned_*) and re-encode them byte for byte, so a
 * change to any layout fails here rather than in a user's resume.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "scratch_dir.hh"
#include "study/checkpoint.hh"
#include "svc/protocol.hh"
#include "trace/capture.hh"
#include "util/blob_store.hh"
#include "util/csv.hh"
#include "util/frame.hh"
#include "util/journal.hh"
#include "util/status.hh"

using namespace fo4;
using util::FrameVerdict;
using util::HeaderVerdict;

namespace
{

constexpr char kTestMagic[8] = {'F', 'O', '4', 'T', 'E', 'S', 'T', '\n'};

/** The format bounds every reader applies, by name. */
struct NamedLimits
{
    const char *name;
    util::FrameLimits limits;
};
const NamedLimits kFormatLimits[] = {
    {"journal", {0, util::kMaxJournalRecord}},
    {"capture", {1, trace::kMaxCaptureFrame}},
    {"wire", {4, svc::kMaxPayloadBytes}},
};

std::string
tempPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/" + name;
    std::remove(path.c_str());
    return path;
}

bool
fileExists(const std::string &path)
{
    struct stat sb;
    return ::stat(path.c_str(), &sb) == 0;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spew(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
fixture(const std::string &name)
{
    return slurp(std::string(FO4_SOURCE_DIR) + "/tests/data/" + name);
}

/**
 * One frame per wire body shape, in the order of
 * tests/data/pinned_wire_bodies.frames: both kinds of sweep request,
 * every status and stats shape, the error and fleet records, and each
 * one-field body.  The fixture was written from exactly these values.
 */
std::vector<std::pair<svc::MsgType, std::string>>
wireBodyShapes()
{
    using svc::MsgType;
    std::vector<std::pair<MsgType, std::string>> shapes;

    svc::SweepRequest plain;
    plain.instructions = 6000;
    plain.warmup = 500;
    plain.prewarm = 20000;
    plain.tUseful = {8.0, 6.0};
    svc::WireJob gzip;
    gzip.name = "164.gzip";
    plain.jobs.push_back(gzip);
    svc::WireJob mcf;
    mcf.name = "181.mcf";
    mcf.cycleLimit = 5000;
    plain.jobs.push_back(mcf);
    shapes.emplace_back(MsgType::SubmitSweep, plain.encode());

    svc::SweepRequest mc;
    mc.model = "inorder";
    mc.predictor = "gshare";
    mc.overheadFo4 = 2.5;
    mc.tUseful = {6.0, 7.5};
    mc.tenant = "acme-1";
    mc.mcSamples = 4;
    mc.mcDist = "lognormal";
    mc.mcSigmaLatch = 0.05;
    mc.mcSigmaSkew = 0.1;
    mc.mcSigmaJitter = 0.02;
    mc.mcSigmaDie = 0.03;
    mc.mcSeed = 7;
    svc::WireJob swim;
    swim.name = "171.swim";
    swim.cls = trace::BenchClass::NonVectorFp;
    mc.jobs.push_back(swim);
    svc::WireJob replay;
    replay.name = "cap\ttured\\1";
    replay.fromTrace = true;
    replay.tracePath = "/data/runs\n1.fo4cap";
    replay.cycleLimit = 90000;
    mc.jobs.push_back(replay);
    shapes.emplace_back(MsgType::SubmitSweep, mc.encode());

    svc::JobStatusInfo failed;
    failed.id = 7;
    failed.state = svc::JobState::Failed;
    failed.cellsTotal = 4;
    failed.cellsStarted = 3;
    failed.cellsDone = 2;
    failed.errorCode = util::ErrorCode::TraceCorrupt;
    failed.errorMessage = "cell (1, 0): bad\nframe";
    shapes.emplace_back(MsgType::JobStatus, failed.encode());

    svc::JobStatusInfo done;
    done.id = 8;
    done.state = svc::JobState::Done;
    done.cellsTotal = 4;
    done.cellsStarted = 4;
    done.cellsDone = 4;
    shapes.emplace_back(MsgType::JobStatus, done.encode());

    svc::JobStatusInfo cancelled;
    cancelled.id = 9;
    cancelled.state = svc::JobState::Cancelled;
    cancelled.cellsTotal = 12;
    shapes.emplace_back(MsgType::CancelOk, cancelled.encode());

    svc::StatsSnapshot stats;
    stats.queueDepth = 2;
    stats.maxQueue = 8;
    stats.runningJobs = 1;
    stats.runningCellsStarted = 3;
    stats.runningCellsTotal = 12;
    stats.submitted = 14;
    stats.rejected = 1;
    stats.completed = 10;
    stats.failed = 1;
    stats.cancelled = 1;
    stats.cacheBytes = 40960;
    stats.cacheEntries = 5;
    stats.latencyBuckets = {0, 3, 1};
    stats.latencySamples = 4;
    stats.latencyMeanMs = 12.5;
    stats.counters = {{"svc.cache.dedup", 2},
                      {"svc.tenant.acme-1.submitted", 5}};
    shapes.emplace_back(MsgType::StatsReport, stats.encode());
    shapes.emplace_back(MsgType::StatsReport, svc::StatsSnapshot{}.encode());

    shapes.emplace_back(
        MsgType::Error,
        svc::encodeError(util::ErrorCode::InvalidConfig,
                         "unknown branch predictor 'zzz'\tline 2"));
    shapes.emplace_back(MsgType::SubmitOk, svc::encodeSubmitOk(12, 40));

    svc::WorkerHelloInfo hello;
    hello.name = "w\\1\tA";
    hello.threads = 2;
    shapes.emplace_back(MsgType::WorkerHello, hello.encode());

    svc::HelloOkInfo ok;
    ok.workerId = 3;
    ok.heartbeatMs = 1000;
    ok.leaseTimeoutMs = 60000;
    shapes.emplace_back(MsgType::HelloOk, ok.encode());

    svc::CellLeaseInfo lease;
    lease.sweep = 0x0123456789abcdefull;
    lease.point = 5;
    lease.job = 1;
    lease.requestBody = plain.encode();
    shapes.emplace_back(MsgType::CellLease, lease.encode());

    shapes.emplace_back(MsgType::Poll, svc::encodeId(42));
    shapes.emplace_back(MsgType::LeaseRequest, svc::encodeWorkerId(3));
    shapes.emplace_back(MsgType::Heartbeat, svc::encodeWorkerId(4));
    shapes.emplace_back(MsgType::NoWork, svc::encodeRetryMs(20));
    shapes.emplace_back(MsgType::DoneOk, svc::encodeAccepted(true));
    shapes.emplace_back(MsgType::HeartbeatOk, svc::encodeKnown(false));

    svc::WorkerSnapshot live;
    live.id = 1;
    live.name = "w1";
    live.activeLeases = 2;
    live.cellsCompleted = 40;
    live.heartbeatAgeMs = 15;
    svc::WorkerSnapshot dead;
    dead.id = 2;
    dead.name = "rack\t7\\b";
    dead.state = svc::WorkerState::Dead;
    dead.cellsCompleted = 3;
    dead.heartbeatAgeMs = 12000;
    shapes.emplace_back(MsgType::WorkerReport,
                        svc::WorkerSnapshot::encodeList({live, dead}));
    shapes.emplace_back(MsgType::WorkerReport,
                        svc::WorkerSnapshot::encodeList({}));
    return shapes;
}

/** Payloads of several sizes, an empty one included. */
std::vector<std::string>
samplePayloads()
{
    return {"alpha", "", std::string(300, 'z'),
            std::string("\x00\xff\n\x01", 4), "omega"};
}

/**
 * Cell payloads that frame and CRC cleanly but must still be refused:
 * a class or error code one past the last the build knows, both at
 * once, far out of range, and an Ok code that carries a message (it
 * would decode with the message dropped, so re-encode differently).
 */
std::vector<std::string>
outOfRangeCellPayloads()
{
    study::CellRecord cell;
    cell.result.name = "164.gzip";
    cell.result.error =
        util::Status(util::ErrorCode::TraceCorrupt, "damaged frame");
    const std::string good = study::encodeCellRecord(cell);
    const std::size_t clsAt = 12 + cell.result.name.size();
    const std::size_t codeAt =
        good.size() - 8 - cell.result.error.message().size();
    using Edits =
        std::initializer_list<std::pair<std::size_t, std::uint32_t>>;
    const auto patched = [&good](Edits edits) {
        std::string p = good;
        for (const auto &[at, value] : edits)
            util::putU32(reinterpret_cast<unsigned char *>(p.data()) + at,
                         value);
        return p;
    };
    return {patched({{clsAt, 3}}), patched({{codeAt, 18}}),
            patched({{clsAt, 9}, {codeAt, 200}}), patched({{codeAt, 0}})};
}

/** A header plus one frame per payload. */
std::string
framedFile(const std::vector<std::string> &payloads)
{
    std::string bytes = util::encodeFileHeader(kTestMagic, 7, 0xabcdef);
    for (const auto &p : payloads)
        util::appendFrame(bytes, {}, p);
    return bytes;
}

struct Scan
{
    util::FileHeader header;
    util::FrameRun run;
    std::vector<std::string> payloads;
};

Scan
scanAll(const std::string &bytes, util::FrameLimits limits)
{
    Scan scan;
    scan.header = util::checkFileHeader(bytes, kTestMagic, 7);
    if (scan.header.verdict != HeaderVerdict::Ok)
        return scan;
    scan.run = util::scanFrames(bytes, util::kFileHeaderBytes, limits,
                                [&](std::string_view p) {
                                    scan.payloads.emplace_back(p);
                                });
    return scan;
}

/** Faults every durable write whose path starts with `prefix`. */
class ScopedDiskFault
{
  public:
    ScopedDiskFault(std::string prefix, util::DiskFault fault,
                    std::vector<std::string> *seen = nullptr)
    {
        util::setDiskFaultHook(
            [prefix = std::move(prefix), fault,
             seen](const std::string &path)
                -> std::optional<util::DiskFault> {
                if (seen)
                    seen->push_back(path);
                if (path.rfind(prefix, 0) == 0)
                    return fault;
                return std::nullopt;
            });
    }
    ~ScopedDiskFault() { util::setDiskFaultHook(nullptr); }
};

} // namespace

// ---------------------------------------------------------------------
// Layout primitives
// ---------------------------------------------------------------------

TEST(Frame, LittleEndianHelpersPinByteOrder)
{
    unsigned char b[8];
    util::putU16(b, 0x0102);
    EXPECT_EQ(b[0], 0x02);
    EXPECT_EQ(b[1], 0x01);
    EXPECT_EQ(util::getU16(b), 0x0102);
    util::putU32(b, 0x01020304u);
    EXPECT_EQ(b[0], 0x04);
    EXPECT_EQ(b[3], 0x01);
    EXPECT_EQ(util::getU32(b), 0x01020304u);
    util::putU64(b, 0x0102030405060708ull);
    EXPECT_EQ(b[0], 0x08);
    EXPECT_EQ(b[7], 0x01);
    EXPECT_EQ(util::getU64(b), 0x0102030405060708ull);

    std::string out;
    util::appendU32(out, 0xdeadbeefu);
    util::appendU64(out, 0x0123456789abcdefull);
    ASSERT_EQ(out.size(), 12u);
    const auto *p = reinterpret_cast<const unsigned char *>(out.data());
    EXPECT_EQ(util::getU32(p), 0xdeadbeefu);
    EXPECT_EQ(util::getU64(p + 4), 0x0123456789abcdefull);
}

TEST(Frame, EncoderChainsTheCrcOverPrefixAndBody)
{
    std::string frame;
    util::appendFrame(frame, "PRE", "body bytes");
    ASSERT_EQ(frame.size(), util::kFrameHeadBytes + 13);
    const auto *head = reinterpret_cast<const unsigned char *>(frame.data());
    EXPECT_EQ(util::getU32(head), 13u);
    EXPECT_EQ(util::getU32(head + 4), util::crc32("PREbody bytes", 13));
    EXPECT_EQ(frame.substr(util::kFrameHeadBytes), "PREbody bytes");

    // Appending keeps what was already there.
    std::string two = frame;
    util::appendFrame(two, {}, "");
    EXPECT_EQ(two.substr(0, frame.size()), frame);
    EXPECT_EQ(two.size(), frame.size() + util::kFrameHeadBytes);
}

TEST(Frame, HeaderLadderChecksSizeMagicVersionThenCrc)
{
    const std::string good = util::encodeFileHeader(kTestMagic, 7, 42);
    ASSERT_EQ(good.size(), util::kFileHeaderBytes);
    auto h = util::checkFileHeader(good, kTestMagic, 7);
    EXPECT_EQ(h.verdict, HeaderVerdict::Ok);
    EXPECT_EQ(h.tag, 42u);

    EXPECT_EQ(util::checkFileHeader(good.substr(0, 31), kTestMagic, 7)
                  .verdict,
              HeaderVerdict::Truncated);
    EXPECT_EQ(util::checkFileHeader(good, kTestMagic, 8).verdict,
              HeaderVerdict::BadVersion);

    auto bad = good;
    bad[0] = 'X';
    EXPECT_EQ(util::checkFileHeader(bad, kTestMagic, 7).verdict,
              HeaderVerdict::BadMagic);

    // A rotted version word with the CRC left stale reads as version
    // skew, not bit rot: version is checked first.
    bad = good;
    bad[8] = 9;
    h = util::checkFileHeader(bad, kTestMagic, 7);
    EXPECT_EQ(h.verdict, HeaderVerdict::BadVersion);
    EXPECT_EQ(h.version, 9u);

    bad = good;
    bad[16] ^= 0x01; // tag: covered by the CRC
    EXPECT_EQ(util::checkFileHeader(bad, kTestMagic, 7).verdict,
              HeaderVerdict::BadCrc);
}

// ---------------------------------------------------------------------
// The adversarial corpus
// ---------------------------------------------------------------------

TEST(Frame, TruncationAtEveryByteIsATornTailWithTheIntactPrefix)
{
    const auto payloads = samplePayloads();
    const std::string whole = framedFile(payloads);
    std::vector<std::size_t> boundaries = {util::kFileHeaderBytes};
    for (const auto &p : payloads)
        boundaries.push_back(boundaries.back() + util::kFrameHeadBytes +
                             p.size());
    ASSERT_EQ(boundaries.back(), whole.size());

    for (const auto &[name, limits] : kFormatLimits) {
        if (limits.minBytes > 0)
            continue; // the sample holds an empty payload
        for (std::size_t len = 0; len <= whole.size(); ++len) {
            const Scan scan = scanAll(whole.substr(0, len), limits);
            if (len < util::kFileHeaderBytes) {
                EXPECT_EQ(scan.header.verdict, HeaderVerdict::Truncated)
                    << name << " len=" << len;
                continue;
            }
            ASSERT_EQ(scan.header.verdict, HeaderVerdict::Ok) << len;
            // The intact prefix is every frame that ends at or before
            // the cut, byte for byte.
            std::size_t intact = 0;
            while (intact + 1 < boundaries.size() &&
                   boundaries[intact + 1] <= len)
                ++intact;
            ASSERT_EQ(scan.payloads.size(), intact) << "len=" << len;
            for (std::size_t i = 0; i < intact; ++i)
                ASSERT_EQ(scan.payloads[i], payloads[i]) << "len=" << len;
            EXPECT_EQ(scan.run.validBytes, boundaries[intact]);
            EXPECT_EQ(scan.run.stop.verdict,
                      len == boundaries[intact] ? FrameVerdict::Ok
                                                : FrameVerdict::TornTail)
                << "len=" << len;
        }
    }
}

TEST(Frame, EveryBitFlipGetsExactlyOneVerdictAndNoWrongByte)
{
    const auto payloads = samplePayloads();
    const std::string whole = framedFile(payloads);
    const util::FrameLimits limits = {0, util::kMaxJournalRecord};
    std::size_t torn = 0, corrupt = 0, oversize = 0, harmless = 0;

    for (std::size_t bit = 0; bit < whole.size() * 8; ++bit) {
        std::string flipped = whole;
        flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^
                                             (1u << (bit % 8)));
        const std::size_t byte = bit / 8;
        const Scan scan = scanAll(flipped, limits);

        if (byte < util::kFileHeaderBytes) {
            // Every checked header byte refuses the file; only the
            // reserved tail [28, 32) is outside the CRC, and a flip
            // there must decode to exactly the original frames.
            if (byte < 28) {
                EXPECT_NE(scan.header.verdict, HeaderVerdict::Ok)
                    << "bit " << bit;
                continue;
            }
            ASSERT_EQ(scan.header.verdict, HeaderVerdict::Ok);
            EXPECT_EQ(scan.run.stop.verdict, FrameVerdict::Ok);
            EXPECT_EQ(scan.payloads, payloads) << "bit " << bit;
            ++harmless;
            continue;
        }

        // A flip inside the frames never scans clean, and whatever was
        // delivered before the damage is an exact prefix.
        ASSERT_EQ(scan.header.verdict, HeaderVerdict::Ok);
        ASSERT_LE(scan.payloads.size(), payloads.size()) << "bit " << bit;
        for (std::size_t i = 0; i < scan.payloads.size(); ++i)
            ASSERT_EQ(scan.payloads[i], payloads[i]) << "bit " << bit;
        switch (scan.run.stop.verdict) {
          case FrameVerdict::Ok:
            ADD_FAILURE() << "bit " << bit << " scanned clean";
            break;
          case FrameVerdict::TornTail:
            ++torn;
            break;
          case FrameVerdict::Corrupt:
            ++corrupt;
            break;
          case FrameVerdict::Oversize:
            ++oversize;
            EXPECT_GT(scan.run.stop.length, limits.maxBytes);
            break;
        }
    }
    // All three refusals occur, and rot never outnumbers the bits.
    EXPECT_GT(torn, 0u);
    EXPECT_GT(corrupt, 0u);
    EXPECT_GT(oversize, 0u);
    EXPECT_EQ(harmless, 32u);
    EXPECT_EQ(torn + corrupt + oversize + harmless +
                  28u * 8u, // refused headers
              whole.size() * 8);
}

TEST(Frame, RottedLengthWordIsOversizeNeverATornTail)
{
    // The journal bug class: a high length bit flips, the frame claims
    // more bytes than the file holds, and a reader without a bound
    // would call it a torn tail and drop everything behind it.
    const std::string whole = framedFile({"one", "two", "three"});
    for (int bit = 20; bit < 32; ++bit) {
        std::string flipped = whole;
        const std::size_t at = util::kFileHeaderBytes + bit / 8;
        flipped[at] = static_cast<char>(flipped[at] ^ (1u << (bit % 8)));
        const Scan scan = scanAll(flipped, {0, util::kMaxJournalRecord});
        EXPECT_EQ(scan.run.stop.verdict, FrameVerdict::Oversize)
            << "length bit " << bit;
        EXPECT_TRUE(scan.payloads.empty());
        EXPECT_EQ(scan.run.validBytes, util::kFileHeaderBytes);
    }
}

TEST(Frame, LengthWordsAtAndJustPastEachBound)
{
    for (const auto &[name, limits] : kFormatLimits) {
        const auto scanHead = [&](std::uint32_t length) {
            std::string head(util::kFrameHeadBytes, '\0');
            util::putU32(reinterpret_cast<unsigned char *>(head.data()),
                         length);
            return util::scanFrame(head, limits);
        };
        // At the upper bound the length is plausible: with no payload
        // bytes present yet, the frame is a torn tail.
        EXPECT_EQ(scanHead(limits.maxBytes).verdict, FrameVerdict::TornTail)
            << name;
        EXPECT_EQ(scanHead(limits.maxBytes + 1).verdict,
                  FrameVerdict::Oversize)
            << name;
        EXPECT_EQ(scanHead(0xFFFFFFFFu).verdict, FrameVerdict::Oversize)
            << name;
        if (limits.minBytes > 0) {
            EXPECT_EQ(scanHead(limits.minBytes - 1).verdict,
                      FrameVerdict::Oversize)
                << name;
        }
        // At the lower bound a whole frame scans clean.
        std::string frame;
        util::appendFrame(frame, {}, std::string(limits.minBytes, 'm'));
        const auto ok = util::scanFrame(frame, limits);
        EXPECT_EQ(ok.verdict, FrameVerdict::Ok) << name;
        EXPECT_EQ(ok.payload, std::string(limits.minBytes, 'm')) << name;
    }

    // The same bounds as each reader applies them.
    {
        const std::string path = tempPath("frame_bound.j");
        auto writer = util::JournalWriter::create(path, 1);
        writer.append("record");
        writer.close();
        std::string bytes = slurp(path);
        util::putU32(reinterpret_cast<unsigned char *>(bytes.data()) +
                         util::kFileHeaderBytes,
                     util::kMaxJournalRecord + 1);
        spew(path, bytes);
        try {
            util::readJournal(path);
            ADD_FAILURE() << "oversize journal record accepted";
        } catch (const util::JournalError &e) {
            EXPECT_EQ(e.code(), util::ErrorCode::JournalCorrupt);
        }
        std::remove(path.c_str());
    }
    for (const std::uint32_t length :
         {svc::kMaxPayloadBytes + 1, std::uint32_t{3}}) {
        unsigned char head[svc::kFrameHeaderBytes] = {};
        util::putU32(head, length);
        EXPECT_THROW(svc::decodeFrameHeader(head), util::SvcError)
            << length;
    }
    unsigned char head[svc::kFrameHeaderBytes] = {};
    util::putU32(head, svc::kMaxPayloadBytes);
    EXPECT_EQ(svc::decodeFrameHeader(head).payloadBytes,
              svc::kMaxPayloadBytes);
}

TEST(Frame, CellPayloadOutsideItsEnumsIsJournalCorrupt)
{
    for (const auto &payload : outOfRangeCellPayloads()) {
        // The framing layer passes it through untouched...
        std::string frame;
        util::appendFrame(frame, {}, payload);
        const auto scan =
            util::scanFrame(frame, {0, util::kMaxJournalRecord});
        ASSERT_EQ(scan.verdict, FrameVerdict::Ok);
        // ...and the cell decoder refuses it with a typed error.
        try {
            study::decodeCellRecord(std::string(scan.payload), "corpus");
            ADD_FAILURE() << "out-of-range cell payload accepted";
        } catch (const util::JournalError &e) {
            EXPECT_EQ(e.code(), util::ErrorCode::JournalCorrupt);
        }
    }

    // The last value of each enum is still accepted, byte for byte.
    study::CellRecord last;
    last.result.name = "301.apsi";
    last.result.cls = trace::BenchClass::NonVectorFp;
    last.result.error = util::Status(util::ErrorCode::Internal, "escape");
    const std::string payload = study::encodeCellRecord(last);
    EXPECT_EQ(study::encodeCellRecord(
                  study::decodeCellRecord(payload, "corpus")),
              payload);
}

TEST(Frame, SeparatelyReadPayloadIsVerifiedLikeAContiguousOne)
{
    std::string frame;
    util::appendFrame(frame, {}, "payload");
    const auto *head = reinterpret_cast<const unsigned char *>(frame.data());
    const std::string_view payload =
        std::string_view(frame).substr(util::kFrameHeadBytes);
    EXPECT_EQ(util::verifyFramePayload(util::getU32(head + 4), payload)
                  .verdict,
              FrameVerdict::Ok);
    const auto bad =
        util::verifyFramePayload(util::getU32(head + 4) ^ 1u, payload);
    EXPECT_EQ(bad.verdict, FrameVerdict::Corrupt);
    EXPECT_EQ(bad.computedCrc, util::getU32(head + 4));
}

// ---------------------------------------------------------------------
// Whole files and the atomic publisher
// ---------------------------------------------------------------------

TEST(Frame, WholeFileReaderTypesEachFailure)
{
    const auto missing = util::readWholeFile(tempPath("frame_missing"));
    EXPECT_FALSE(missing.ok());
    EXPECT_FALSE(missing.opened);
    EXPECT_EQ(missing.error, ENOENT);

    // A directory opens but cannot be read.
    const auto dir = util::readWholeFile(::testing::TempDir());
    EXPECT_FALSE(dir.ok());
    EXPECT_TRUE(dir.opened);
    EXPECT_EQ(dir.error, EISDIR);

    // Larger than one read buffer, every byte back.
    std::string big(200000, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>(i * 131 + 7);
    const std::string path = tempPath("frame_big.bin");
    spew(path, big);
    const auto got = util::readWholeFile(path);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.bytes, big);
    std::remove(path.c_str());
}

TEST(Frame, WholeFileWriterChecksEveryStep)
{
    // Written in place, truncating what was there.
    const std::string path = tempPath("frame_written.txt");
    spew(path, "an older, longer body");
    ASSERT_TRUE(util::writeWholeFile(path, "fresh").isOk());
    EXPECT_EQ(slurp(path), "fresh");

    // A full disk mid-write is a typed JournalIo naming the file, never
    // a success.
    {
        ScopedDiskFault fault(path, util::DiskFault{28, 2});
        const util::Status st = util::writeWholeFile(path, "refused");
        EXPECT_EQ(st.code(), util::ErrorCode::JournalIo);
        EXPECT_NE(st.message().find(path), std::string::npos);
        EXPECT_NE(st.message().find("after 2 of 7 bytes"),
                  std::string::npos);
    }

    // So is a file that cannot be opened.
    EXPECT_EQ(util::writeWholeFile("/nonexistent-dir-fo4/x", "x").code(),
              util::ErrorCode::JournalIo);
    std::remove(path.c_str());
}

TEST(Frame, PublisherIsAllOrNothing)
{
    const std::string path = tempPath("frame_publish.bin");
    const std::string tmp = path + ".tmp";
    {
        util::AtomicFile file;
        ASSERT_TRUE(file.open(path, tmp).isOk());
        ASSERT_TRUE(file.write("first ").isOk());
        ASSERT_TRUE(file.write("version").isOk());
        EXPECT_TRUE(fileExists(tmp));
        EXPECT_FALSE(fileExists(path));
        ASSERT_TRUE(file.publish().isOk());
        EXPECT_TRUE(file.renamed());
    }
    EXPECT_EQ(slurp(path), "first version");
    EXPECT_FALSE(fileExists(tmp));

    // Abandoned — explicitly or by destruction — publishes nothing and
    // leaves the previous complete file alone.
    {
        util::AtomicFile file;
        ASSERT_TRUE(file.open(path, tmp).isOk());
        ASSERT_TRUE(file.write("second").isOk());
    }
    EXPECT_EQ(slurp(path), "first version");
    EXPECT_FALSE(fileExists(tmp));

    // A temporary that cannot be created is a typed error.
    util::AtomicFile nowhere;
    const util::Status st =
        nowhere.open("/nonexistent-dir-fo4/x", "/nonexistent-dir-fo4/x.t");
    EXPECT_EQ(st.code(), util::ErrorCode::JournalIo);
    EXPECT_FALSE(nowhere.publish().isOk());
    std::remove(path.c_str());
}

TEST(Frame, DiskFaultsNeverLeaveAPublishedFile)
{
    const std::string path = tempPath("frame_fault.bin");
    const std::string tmp = path + ".tmp";
    const std::string bytes(64, 'q');
    spew(path, "previous");

    // Every short-write length, on the first write and on a later one.
    for (std::size_t landed = 0; landed <= bytes.size(); landed += 7) {
        for (const bool laterWrite : {false, true}) {
            std::vector<std::string> seen;
            util::AtomicFile file;
            ASSERT_TRUE(file.open(path, tmp).isOk());
            if (laterWrite) {
                ASSERT_TRUE(file.write("head").isOk());
            }
            {
                ScopedDiskFault fault(
                    tmp,
                    util::DiskFault{.failErrno = 28,
                                    .shortWriteBytes = landed},
                    &seen);
                const util::Status st = file.write(bytes);
                ASSERT_FALSE(st.isOk());
                EXPECT_EQ(st.code(), util::ErrorCode::JournalIo);
                EXPECT_NE(st.message().find("No space left"),
                          std::string::npos);
            }
            ASSERT_EQ(seen, std::vector<std::string>{tmp})
                << "the hook sees the temporary's path";
            // The torn temporary is never published.
            EXPECT_FALSE(file.publish().isOk());
            EXPECT_FALSE(file.renamed());
            EXPECT_FALSE(fileExists(tmp)) << "landed=" << landed;
            EXPECT_EQ(slurp(path), "previous") << "landed=" << landed;
        }
    }

    // Each owner's publisher goes through the same hook, and none of
    // them replaces the previous file.
    {
        ScopedDiskFault fault(path, util::DiskFault{});
        EXPECT_THROW(util::JournalWriter::create(path, 1),
                     util::JournalError);
        EXPECT_THROW(trace::CaptureWriter::create(path),
                     util::TraceError);
        util::AtomicCsvFile csv(path);
        EXPECT_FALSE(csv.tryWriteRow({"row"}).isOk());
        EXPECT_FALSE(csv.tryCommit().isOk());
    }
    EXPECT_EQ(slurp(path), "previous");
    EXPECT_FALSE(fileExists(tmp));
    {
        const tests::ScratchDir scratch("frame_fault_blobs");
        const std::string &dir = scratch.path();
        util::BlobStore store(dir, 0, "frame.blob");
        ScopedDiskFault fault(dir + "/", util::DiskFault{});
        EXPECT_FALSE(store.put("k", "v"));
        EXPECT_FALSE(fileExists(store.pathFor("k")));
        EXPECT_EQ(store.entries(), 0u);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Pinned bytes
// ---------------------------------------------------------------------

TEST(PinnedBytes, JournalOfCellRecordsReencodesByteForByte)
{
    const std::string pinned = fixture("pinned_cells.journal");
    const std::string path = tempPath("pinned_cells.journal");
    spew(path, pinned);
    const auto contents = util::readJournal(path);
    EXPECT_EQ(contents.fingerprint, 0x0123456789abcdefull);
    EXPECT_FALSE(contents.tornTail);
    ASSERT_EQ(contents.records.size(), 3u);

    const std::string again = tempPath("pinned_cells_again.journal");
    auto writer = util::JournalWriter::create(again, contents.fingerprint);
    for (const auto &record : contents.records) {
        const auto cell = study::decodeCellRecord(record, path);
        const std::string reencoded = study::encodeCellRecord(cell);
        EXPECT_EQ(reencoded, record);
        writer.append(reencoded);
    }
    writer.close();
    EXPECT_EQ(slurp(again), pinned);

    const auto failed = study::decodeCellRecord(contents.records[2], path);
    EXPECT_EQ(failed.point, 14u);
    EXPECT_EQ(failed.job, 17u);
    EXPECT_EQ(failed.result.error.code(), util::ErrorCode::TraceCorrupt);
    std::remove(path.c_str());
    std::remove(again.c_str());
}

TEST(PinnedBytes, ResultStoreBlobReencodesByteForByte)
{
    const std::string pinned = fixture("pinned_cell.blob");
    const tests::ScratchDir scratch("pinned_blob");
    const std::string dir = scratch.file("dir");
    const std::string out = scratch.file("out");

    util::BlobStore store(dir, 0, "pinned.blob");
    spew(store.pathFor("pinned_cell"), pinned);
    const auto payload = store.get("pinned_cell");
    ASSERT_TRUE(payload.has_value());
    const auto cell = study::decodeCellRecord(*payload, "pinned blob");
    EXPECT_EQ(cell.result.name, "171.swim");
    const std::string reencoded = study::encodeCellRecord(cell);
    EXPECT_EQ(reencoded, *payload);

    util::BlobStore fresh(out, 0, "pinned.blob");
    ASSERT_TRUE(fresh.put("pinned_cell", reencoded));
    EXPECT_EQ(slurp(fresh.pathFor("pinned_cell")), pinned);
    fresh.remove("pinned_cell");
    store.remove("pinned_cell");
}

TEST(PinnedBytes, WireFrameReencodesByteForByte)
{
    const std::string pinned = fixture("pinned_cell_done.frame");
    ASSERT_GT(pinned.size(), svc::kFrameHeaderBytes);
    unsigned char head[svc::kFrameHeaderBytes];
    std::memcpy(head, pinned.data(), sizeof(head));
    const svc::FrameHeader header = svc::decodeFrameHeader(head);
    const svc::Frame frame = svc::decodePayload(
        header, std::string_view(pinned).substr(sizeof(head)));
    ASSERT_EQ(frame.type, svc::MsgType::CellDone);

    const auto done = svc::CellDoneInfo::decode(frame.body);
    EXPECT_EQ(done.workerId, 2u);
    EXPECT_EQ(done.sweep, 0x0123456789abcdefull);
    const auto cell = study::decodeCellRecord(done.cellPayload, "wire");
    EXPECT_EQ(study::encodeCellRecord(cell), done.cellPayload);
    EXPECT_EQ(svc::encodeFrame(svc::MsgType::CellDone, done.encode()),
              pinned);
}

TEST(PinnedBytes, EveryWireBodyReencodesByteForByte)
{
    const std::string pinned = fixture("pinned_wire_bodies.frames");
    const auto shapes = wireBodyShapes();

    // The values above still encode to the committed bytes...
    std::string built;
    for (const auto &[type, body] : shapes)
        built += svc::encodeFrame(type, body);
    EXPECT_EQ(built, pinned);

    // ...and each committed frame decodes and re-encodes unchanged.
    std::size_t offset = 0;
    std::size_t index = 0;
    while (offset < pinned.size()) {
        ASSERT_LE(offset + svc::kFrameHeaderBytes, pinned.size());
        unsigned char head[svc::kFrameHeaderBytes];
        std::memcpy(head, pinned.data() + offset, sizeof(head));
        const svc::FrameHeader header = svc::decodeFrameHeader(head);
        const std::size_t end = offset + sizeof(head) + header.payloadBytes;
        ASSERT_LE(end, pinned.size());
        const svc::Frame frame = svc::decodePayload(
            header, std::string_view(pinned).substr(
                        offset + sizeof(head), header.payloadBytes));
        ASSERT_LT(index, shapes.size());
        EXPECT_EQ(frame.type, shapes[index].first) << "frame " << index;

        std::string again;
        switch (frame.type) {
          case svc::MsgType::SubmitSweep:
            again = svc::SweepRequest::decode(frame.body).encode();
            break;
          case svc::MsgType::JobStatus:
          case svc::MsgType::CancelOk:
            again = svc::JobStatusInfo::decode(frame.body).encode();
            break;
          case svc::MsgType::StatsReport:
            again = svc::StatsSnapshot::decode(frame.body).encode();
            break;
          case svc::MsgType::Error: {
            const auto [code, message] = svc::decodeError(frame.body);
            again = svc::encodeError(code, message);
            break;
          }
          case svc::MsgType::SubmitOk: {
            const auto [id, cells] = svc::decodeSubmitOk(frame.body);
            again = svc::encodeSubmitOk(id, cells);
            break;
          }
          case svc::MsgType::WorkerHello:
            again = svc::WorkerHelloInfo::decode(frame.body).encode();
            break;
          case svc::MsgType::HelloOk:
            again = svc::HelloOkInfo::decode(frame.body).encode();
            break;
          case svc::MsgType::CellLease:
            again = svc::CellLeaseInfo::decode(frame.body).encode();
            break;
          case svc::MsgType::Poll:
            again = svc::encodeId(svc::decodeId(frame.body));
            break;
          case svc::MsgType::LeaseRequest:
          case svc::MsgType::Heartbeat:
            again = svc::encodeWorkerId(svc::decodeWorkerId(frame.body));
            break;
          case svc::MsgType::NoWork:
            again = svc::encodeRetryMs(svc::decodeRetryMs(frame.body));
            break;
          case svc::MsgType::DoneOk:
            again = svc::encodeAccepted(svc::decodeAccepted(frame.body));
            break;
          case svc::MsgType::HeartbeatOk:
            again = svc::encodeKnown(svc::decodeKnown(frame.body));
            break;
          case svc::MsgType::WorkerReport:
            again = svc::WorkerSnapshot::encodeList(
                svc::WorkerSnapshot::decodeList(frame.body));
            break;
          default:
            ADD_FAILURE() << "frame " << index << " has no pinned shape";
        }
        EXPECT_EQ(svc::encodeFrame(frame.type, again),
                  pinned.substr(offset, end - offset))
            << "frame " << index;
        offset = end;
        ++index;
    }
    EXPECT_EQ(index, shapes.size());

    // Escaped fields decode to the values they were written from.
    const auto mc = svc::SweepRequest::decode(shapes[1].second);
    EXPECT_EQ(mc.tenant, "acme-1");
    ASSERT_EQ(mc.jobs.size(), 2u);
    EXPECT_EQ(mc.jobs[1].name, "cap\ttured\\1");
    EXPECT_EQ(mc.jobs[1].tracePath, "/data/runs\n1.fo4cap");
    const auto lease = svc::CellLeaseInfo::decode(shapes[11].second);
    EXPECT_EQ(lease.requestBody, shapes[0].second);
}

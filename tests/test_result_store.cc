/**
 * @file
 * The persistent result store's robustness matrix: every way a cache
 * entry or the disk under it can fail must degrade to a typed miss —
 * never a wrong byte, never an exception on the fetch/store paths.
 *
 * Covered here, against util::BlobStore directly and svc::ResultStore
 * above it: round trips and cross-instance persistence, corrupt /
 * truncated / renamed entries (quarantined), format version skew (a
 * miss that does NOT delete the entry), injected ENOSPC and short
 * writes, unlink races, size-cap LRU eviction — including eviction
 * racing concurrent readers, where every lookup must be linearizable
 * to "hit with the exact bytes" or "miss" — and cell records that
 * frame correctly but decode to the wrong grid slot.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "study/checkpoint.hh"
#include "svc/store.hh"
#include "util/blob_store.hh"
#include "util/frame.hh"
#include "util/status.hh"

using namespace fo4;

namespace
{

/** A fresh, empty store directory under the gtest temp root. */
std::string
tempDir(const std::string &name)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "/" + name + "." +
        std::to_string(::getpid());
    // Clear leftovers from a previous run of the same test binary.
    std::system(("rm -rf '" + dir + "'").c_str());
    return dir;
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

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).is_open();
}

/** Faults every durable write under `dir`; clears the hook on exit. */
class ScopedDiskFault
{
  public:
    ScopedDiskFault(std::string dir, util::DiskFault fault)
    {
        util::setDiskFaultHook(
            [dir = std::move(dir),
             fault](const std::string &path)
                -> std::optional<util::DiskFault> {
                if (path.rfind(dir + "/", 0) == 0)
                    return fault;
                return std::nullopt;
            });
    }
    ~ScopedDiskFault() { util::setDiskFaultHook(nullptr); }
};

/** A cell record with recognisable, bit-exact-checkable content. */
study::CellRecord
makeCell(std::size_t point, std::size_t job)
{
    study::CellRecord cell;
    cell.point = point;
    cell.job = job;
    cell.result.name = "164.gzip";
    cell.result.bips = 1.25;
    cell.result.sim.cycles = 12345;
    cell.result.sim.instructions = 67890;
    return cell;
}

} // namespace

// ---------------------------------------------------------------------
// BlobStore: round trips, persistence, identity
// ---------------------------------------------------------------------

TEST(BlobStore, RoundTripPersistsAcrossInstances)
{
    const std::string dir = tempDir("blob_roundtrip");
    const std::string payload("bytes \x00\xff with binary\n", 22);
    {
        util::BlobStore store(dir, 0, "test.blob");
        EXPECT_FALSE(store.get("absent").has_value());
        EXPECT_EQ(store.stats().misses.load(), 1u);
        EXPECT_TRUE(store.put("k1", payload));
        const auto hit = store.get("k1");
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, payload);
        EXPECT_EQ(store.stats().hits.load(), 1u);
        EXPECT_EQ(store.entries(), 1u);
        EXPECT_GT(store.sizeBytes(), payload.size());
    }
    // A second instance over the same directory serves the same bytes:
    // the store is persistent state, not process state.
    util::BlobStore store(dir, 0, "test.blob");
    const auto hit = store.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
}

TEST(BlobStore, OverwriteReplacesPayload)
{
    util::BlobStore store(tempDir("blob_overwrite"), 0, "test.blob");
    ASSERT_TRUE(store.put("k", "old"));
    ASSERT_TRUE(store.put("k", "new"));
    EXPECT_EQ(store.get("k"), "new");
    EXPECT_EQ(store.entries(), 1u);
}

TEST(BlobStore, UncreatableDirectoryIsConfigError)
{
    // A path under a regular file can never become a directory.
    const std::string file = tempDir("blob_notadir");
    spew(file, "i am a file");
    EXPECT_THROW(util::BlobStore(file + "/sub", 0, "test.blob"),
                 util::ConfigError);
    EXPECT_THROW(util::BlobStore(file, 0, "test.blob"),
                 util::ConfigError);
}

// ---------------------------------------------------------------------
// BlobStore: the corruption matrix
// ---------------------------------------------------------------------

TEST(BlobStore, FlippedPayloadByteIsQuarantinedMiss)
{
    util::BlobStore store(tempDir("blob_flip"), 0, "test.blob");
    ASSERT_TRUE(store.put("k", "payload-bytes"));
    const std::string path = store.pathFor("k");
    std::string bytes = slurp(path);
    bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^
                                                0x20);
    spew(path, bytes);

    EXPECT_FALSE(store.get("k").has_value());
    EXPECT_EQ(store.stats().corrupt.load(), 1u);
    // Quarantined: the rotten file is gone, so the next lookup is a
    // plain miss that does not re-count corruption.
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(store.get("k").has_value());
    EXPECT_EQ(store.stats().corrupt.load(), 1u);
}

TEST(BlobStore, TruncatedEntryIsQuarantinedMiss)
{
    util::BlobStore store(tempDir("blob_trunc"), 0, "test.blob");
    ASSERT_TRUE(store.put("k", "a payload long enough to truncate"));
    const std::string path = store.pathFor("k");
    const std::string bytes = slurp(path);
    // Sever mid-payload and, separately, mid-header.
    spew(path, bytes.substr(0, bytes.size() - 5));
    EXPECT_FALSE(store.get("k").has_value());
    ASSERT_TRUE(store.put("k", "again"));
    spew(path, slurp(path).substr(0, 10));
    EXPECT_FALSE(store.get("k").has_value());
    EXPECT_EQ(store.stats().corrupt.load(), 2u);
}

TEST(BlobStore, RenamedBlobCannotMasqueradeAsAnotherKey)
{
    util::BlobStore store(tempDir("blob_rename"), 0, "test.blob");
    ASSERT_TRUE(store.put("honest", "honest bytes"));
    // An attacker (or a confused operator) renames the file to a
    // different key: the echoed key inside the frame gives it away.
    spew(store.pathFor("imposter"), slurp(store.pathFor("honest")));
    EXPECT_FALSE(store.get("imposter").has_value());
    EXPECT_EQ(store.stats().corrupt.load(), 1u);
    // The honest entry still serves.
    EXPECT_EQ(store.get("honest"), "honest bytes");
}

TEST(BlobStore, VersionSkewIsMissButNotDeleted)
{
    util::BlobStore store(tempDir("blob_version"), 0, "test.blob");
    ASSERT_TRUE(store.put("k", "future bytes"));
    const std::string path = store.pathFor("k");
    std::string bytes = slurp(path);
    bytes[8] = static_cast<char>(util::kBlobVersion + 1); // version field
    spew(path, bytes);

    EXPECT_FALSE(store.get("k").has_value());
    // Skew is a layout disagreement, not rot: no corruption counted,
    // and the file is left for whichever build speaks that version.
    EXPECT_EQ(store.stats().corrupt.load(), 0u);
    EXPECT_TRUE(fileExists(path));
}

TEST(BlobStore, BadMagicIsQuarantinedMiss)
{
    util::BlobStore store(tempDir("blob_magic"), 0, "test.blob");
    ASSERT_TRUE(store.put("k", "payload"));
    const std::string path = store.pathFor("k");
    std::string bytes = slurp(path);
    bytes[0] = 'X';
    spew(path, bytes);
    EXPECT_FALSE(store.get("k").has_value());
    EXPECT_EQ(store.stats().corrupt.load(), 1u);
    EXPECT_FALSE(fileExists(path));
}

// ---------------------------------------------------------------------
// BlobStore: injected disk faults
// ---------------------------------------------------------------------

TEST(BlobStore, EnospcOnWriteDropsTheStoreNotTheCaller)
{
    util::BlobStore store(tempDir("blob_enospc"), 0, "test.blob");
    {
        ScopedDiskFault fault(store.directory(),
                              util::DiskFault{}); // immediate ENOSPC
        EXPECT_FALSE(store.put("k", "doomed"));
    }
    EXPECT_EQ(store.stats().diskErrors.load(), 1u);
    EXPECT_EQ(store.entries(), 0u); // no blob, no tmp leftover
    EXPECT_FALSE(fileExists(store.pathFor("k")));

    // Clear the fault: the same store works again.
    EXPECT_TRUE(store.put("k", "landed"));
    EXPECT_EQ(store.get("k"), "landed");
}

TEST(BlobStore, ShortWriteNeverPublishesAPartialBlob)
{
    util::BlobStore store(tempDir("blob_short"), 0, "test.blob");
    {
        // The disk fills 10 bytes into the record.
        ScopedDiskFault fault(
            store.directory(),
            util::DiskFault{.failErrno = 28, .shortWriteBytes = 10});
        EXPECT_FALSE(store.put("k", "a payload that will be cut short"));
    }
    // The partial record lived only in the tmp file, which was dropped:
    // nothing is visible under the final name, so no reader can ever
    // see the torn prefix.
    EXPECT_FALSE(fileExists(store.pathFor("k")));
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_EQ(store.stats().diskErrors.load(), 1u);
}

TEST(BlobStore, UnlinkRaceBeforeReadIsACleanMiss)
{
    util::BlobStore store(tempDir("blob_race"), 0, "test.blob");
    ASSERT_TRUE(store.put("k", "soon gone"));
    util::BlobStoreHooks hooks;
    hooks.beforeRead = [](const std::string &, const std::string &path) {
        ::unlink(path.c_str()); // evicted between lookup and open
    };
    store.setHooks(hooks);
    EXPECT_FALSE(store.get("k").has_value());
    // ENOENT is an honest miss: neither corruption nor a disk error.
    EXPECT_EQ(store.stats().corrupt.load(), 0u);
    EXPECT_EQ(store.stats().diskErrors.load(), 0u);
}

TEST(BlobStore, ByteFlippedAfterPublishIsCaughtOnRead)
{
    util::BlobStore store(tempDir("blob_afterpub"), 0, "test.blob");
    util::BlobStoreHooks hooks;
    hooks.afterPublish = [](const std::string &,
                            const std::string &path) {
        std::string bytes;
        {
            std::ifstream in(path, std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        }
        bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    store.setHooks(hooks);
    ASSERT_TRUE(store.put("k", "rots on the platter"));
    EXPECT_FALSE(store.get("k").has_value());
    EXPECT_EQ(store.stats().corrupt.load(), 1u);
}

// ---------------------------------------------------------------------
// BlobStore: size cap and eviction
// ---------------------------------------------------------------------

TEST(BlobStore, SizeCapEvictsOldestFirst)
{
    // Records are 32 (header) + 2 (key) + 40 (payload) = 74 bytes; a
    // 160-byte cap holds two.
    util::BlobStore store(tempDir("blob_evict"), 160, "test.blob");
    const std::string payload(40, 'p');
    ASSERT_TRUE(store.put("k1", payload));
    ASSERT_TRUE(store.put("k2", payload));
    EXPECT_EQ(store.entries(), 2u);

    // The third put must evict exactly one entry — the oldest, k1 (the
    // mtime tie, if the clock is too coarse, breaks by name, which
    // also picks k1).
    ASSERT_TRUE(store.put("k3", payload));
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.stats().evictions.load(), 1u);
    EXPECT_FALSE(store.get("k1").has_value());
    EXPECT_TRUE(store.get("k2").has_value());
    EXPECT_TRUE(store.get("k3").has_value());
}

TEST(BlobStore, PayloadLargerThanCapIsRefusedOutright)
{
    util::BlobStore store(tempDir("blob_toolarge"), 100, "test.blob");
    ASSERT_TRUE(store.put("small", "fits"));
    EXPECT_FALSE(store.put("big", std::string(200, 'x')));
    // Refused before evicting anything: the store was not drained in a
    // doomed attempt to fit the oversize record.
    EXPECT_EQ(store.stats().evictions.load(), 0u);
    EXPECT_TRUE(store.get("small").has_value());
}

TEST(BlobStore, EvictionUnderConcurrentReadersIsLinearizableToMiss)
{
    // The satellite contract: while a size-capped store is churning
    // (every put evicts), concurrent readers of a hot key must see
    // either the exact published bytes or a clean miss — never torn
    // bytes, never an exception.  POSIX keeps an already-open fd
    // readable after unlink, so even "evicted mid-read" resolves to
    // one of the two legal outcomes.
    const std::string dir = tempDir("blob_evict_race");
    util::BlobStore store(dir, 200, "test.blob");
    const std::string hotPayload(40, 'H');
    ASSERT_TRUE(store.put("hot", hotPayload));

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> hits{0}, misses{0};
    std::atomic<bool> wrongBytes{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!done.load()) {
                const auto got = store.get("hot");
                if (!got.has_value()) {
                    misses.fetch_add(1);
                } else if (*got != hotPayload) {
                    wrongBytes.store(true); // the one forbidden outcome
                } else {
                    hits.fetch_add(1);
                }
            }
        });
    }

    // Churn: filler puts crowd the cap and evict "hot"; periodic
    // re-puts bring it back, racing the readers both ways.
    for (int i = 0; i < 200; ++i) {
        store.put("filler-" + std::to_string(i), std::string(40, 'f'));
        if (i % 5 == 0)
            store.put("hot", hotPayload);
    }
    done.store(true);
    for (auto &r : readers)
        r.join();

    EXPECT_FALSE(wrongBytes.load());
    EXPECT_GT(store.stats().evictions.load(), 0u);
    EXPECT_GT(hits.load() + misses.load(), 0u);
}

// ---------------------------------------------------------------------
// svc::ResultStore: the service layer above the blobs
// ---------------------------------------------------------------------

TEST(ResultStore, SweepPayloadRoundTripsAcrossInstances)
{
    const std::string dir = tempDir("rs_sweep");
    const std::string payload = "point,job,bips\n0,0,1.5\n";
    {
        svc::ResultStore store(dir, 0);
        EXPECT_FALSE(store.fetchSweep(0xabcd).has_value());
        store.storeSweep(0xabcd, payload);
        EXPECT_EQ(store.fetchSweep(0xabcd), payload);
    }
    svc::ResultStore store(dir, 0);
    EXPECT_EQ(store.fetchSweep(0xabcd), payload);
    // A different fingerprint is a different identity entirely.
    EXPECT_FALSE(store.fetchSweep(0xabce).has_value());
}

TEST(ResultStore, CellRoundTripIsBitExact)
{
    svc::ResultStore store(tempDir("rs_cell"), 0);
    const study::CellRecord cell = makeCell(3, 1);
    store.storeCell(0xf00d, cell);
    const auto got = store.fetchCell(0xf00d, 3, 1);
    ASSERT_TRUE(got.has_value());
    // Bit-for-bit: the encoded forms must agree exactly, doubles and
    // all — this is what lets a cached cell substitute for execution.
    EXPECT_EQ(study::encodeCellRecord(*got),
              study::encodeCellRecord(cell));
    // The neighbouring slot is a miss, not a mis-delivery.
    EXPECT_FALSE(store.fetchCell(0xf00d, 3, 2).has_value());
}

TEST(ResultStore, CellSlotMismatchIsQuarantined)
{
    svc::ResultStore store(tempDir("rs_slot"), 0);
    // Frame a perfectly valid cell record for slot (1, 2) under the
    // blob key of slot (0, 0): the frame verifies, the decode works,
    // and only the slot cross-check can catch the mis-filing.
    const std::string payload =
        study::encodeCellRecord(makeCell(1, 2));
    ASSERT_TRUE(
        store.blobs().put(svc::ResultStore::cellKey(0x1, 0, 0), payload));
    EXPECT_FALSE(store.fetchCell(0x1, 0, 0).has_value());
    // Quarantined: the entry is gone, so it cannot mis-file twice.
    EXPECT_FALSE(
        fileExists(store.blobs().pathFor(
            svc::ResultStore::cellKey(0x1, 0, 0))));
}

TEST(ResultStore, UndecodableCellPayloadIsQuarantined)
{
    // Garbage, then CRC-valid records naming an unknown class or error
    // code, or an Ok code with a message.
    std::vector<std::string> payloads{"not a cell record"};
    study::CellRecord cell;
    cell.result.name = "164.gzip";
    cell.result.error = util::Status(util::ErrorCode::TraceCorrupt, "bad");
    const std::string good = study::encodeCellRecord(cell);
    const std::size_t clsAt = 12 + cell.result.name.size();
    const std::size_t codeAt =
        good.size() - 8 - cell.result.error.message().size();
    for (const auto &[at, value] :
         {std::pair{clsAt, 9u}, std::pair{codeAt, 200u},
          std::pair{codeAt, 0u}}) {
        payloads.push_back(good);
        util::putU32(
            reinterpret_cast<unsigned char *>(payloads.back().data()) + at,
            value);
    }

    svc::ResultStore store(tempDir("rs_garbage"), 0);
    for (const auto &payload : payloads) {
        ASSERT_TRUE(store.blobs().put(svc::ResultStore::cellKey(0x2, 0, 0),
                                      payload));
        EXPECT_FALSE(store.fetchCell(0x2, 0, 0).has_value());
        EXPECT_FALSE(
            fileExists(store.blobs().pathFor(
                svc::ResultStore::cellKey(0x2, 0, 0))));
    }
}

TEST(ResultStore, KeysAreDistinctPerKindAndSlot)
{
    EXPECT_NE(svc::ResultStore::sweepKey(1),
              svc::ResultStore::cellKey(1, 0, 0));
    EXPECT_NE(svc::ResultStore::cellKey(1, 0, 1),
              svc::ResultStore::cellKey(1, 1, 0));
    EXPECT_NE(svc::ResultStore::sweepKey(1), svc::ResultStore::sweepKey(2));
}

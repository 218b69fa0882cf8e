/**
 * @file
 * Content-addressed on-disk blob store: the storage primitive under the
 * service result cache (svc::ResultStore).
 *
 * A blob is one file named after its key, holding a CRC-framed record:
 *
 *     header (32 bytes): magic "FO4BLOB\n" | u32 format version |
 *                        u32 key length | u64 payload length |
 *                        u32 payload CRC32 |
 *                        u32 header CRC32 (over the first 28 bytes,
 *                        chained with the key bytes)
 *     key bytes          (echoed so a renamed file cannot masquerade
 *                         as a different entry)
 *     payload bytes
 *
 * Publication goes through util::AtomicFile (DESIGN.md §8): write to
 * `<final>.tmp.<pid>`, fsync, rename, fsync the parent directory — a
 * reader never observes a half-written blob under its final name.  A
 * failed directory fsync after the rename counts a disk error but
 * keeps the store: the blob is readable, and losing it to a power cut
 * only costs a miss.
 *
 * The robustness contract is the whole point (DESIGN.md §15): a cache
 * must *never* betray the byte-identity contract, so every failure
 * degrades to a miss and the caller recomputes:
 *
 *  - corrupt or truncated entry  → miss (+corrupt; file quarantined by
 *    unlink so it is not re-verified on every lookup)
 *  - format version skew         → miss (not deleted: an older/newer
 *    build may still want it)
 *  - ENOSPC / any disk I/O error → miss on read, dropped store on
 *    write (+diskError), never an exception
 *  - concurrent writer race      → last rename wins; both wrote the
 *    same bytes for the same key, so either outcome is correct
 *  - size-cap eviction mid-read  → the reader's already-open fd stays
 *    valid (POSIX unlink semantics); a late reader gets a clean miss
 *
 * get() and put() therefore never throw.  Only the constructor throws
 * (ConfigError) — on a cache dir that cannot be created, because that
 * is a configuration mistake, not a runtime fault.
 *
 * Thread safety: put()/evictions are serialized by an internal mutex;
 * get() is lock-free against concurrent puts and evictions.
 */

#ifndef FO4_UTIL_BLOB_STORE_HH
#define FO4_UTIL_BLOB_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "util/frame.hh"

namespace fo4::util
{

/** Blob header format version; bumped on layout change, and a mismatch
 *  is a miss rather than corruption. */
constexpr std::uint32_t kBlobVersion = 1;

/**
 * Fault-injection hooks for the chaos harness (tests only).  All are
 * optional; an empty hook is a no-op.  Write faults (ENOSPC, short
 * writes) come from util::setDiskFaultHook, which every blob write
 * consults with the blob's temporary path.
 */
struct BlobStoreHooks
{
    /** Runs after a blob is renamed into place (flip bytes, unlink…). */
    std::function<void(const std::string &key, const std::string &path)>
        afterPublish;
    /** Runs before each read attempt (unlink races, truncation…). */
    std::function<void(const std::string &key, const std::string &path)>
        beforeRead;
};

/** Lifetime operation counts (also mirrored into the global metrics
 *  registry under `<counterPrefix>.*`). */
struct BlobStoreStats
{
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> corrupt{0};
    std::atomic<std::uint64_t> diskErrors{0};
};

class BlobStore
{
  public:
    /**
     * Open (creating one directory level if needed) a store rooted at
     * `dir`.  `maxBytes` caps the sum of blob file sizes; 0 means
     * unlimited.  Entries above the cap are evicted oldest-first (by
     * mtime; get() bumps mtime, making the order LRU-ish).
     * `counterPrefix` names the registry counters, e.g. "svc.cache".
     * Throws ConfigError if the directory cannot be created; any later
     * fault on the same directory degrades to misses instead.
     */
    BlobStore(std::string dir, std::uint64_t maxBytes,
              std::string counterPrefix);

    BlobStore(const BlobStore &) = delete;
    BlobStore &operator=(const BlobStore &) = delete;

    /**
     * Fetch the payload stored under `key`.  nullopt is a miss — absent
     * entry, corrupt entry (quarantined), version skew, or any I/O
     * error.  Never throws.
     */
    std::optional<std::string> get(const std::string &key);

    /**
     * Publish `payload` under `key` (atomic tmp+fsync+rename), evicting
     * oldest entries first if the size cap would be exceeded.  Returns
     * false — with the store unchanged under `key` — on any failure, or
     * when the payload alone exceeds the cap.  Never throws.
     */
    bool put(const std::string &key, std::string_view payload);

    /** Remove the entry for `key` (best effort; absent is fine). */
    void remove(const std::string &key);

    /** Sum of blob file sizes on disk right now (directory scan). */
    std::uint64_t sizeBytes() const;

    /** Number of blobs on disk right now (directory scan). */
    std::uint64_t entries() const;

    const BlobStoreStats &stats() const { return st; }
    const std::string &directory() const { return root; }

    /** Install chaos hooks (tests).  Not thread-safe against in-flight
     *  operations — install before use. */
    void setHooks(BlobStoreHooks h) { hooks = std::move(h); }

    /** Filesystem path a key maps to (exposed for tests/chaos). */
    std::string pathFor(const std::string &key) const;

  private:
    bool evictToFit(std::uint64_t incomingBytes);
    void countDiskError();
    void countCorrupt();

    std::string root;
    std::uint64_t maxBytes;
    std::string prefix;
    BlobStoreHooks hooks;
    BlobStoreStats st;
    std::mutex putMutex;
};

} // namespace fo4::util

#endif // FO4_UTIL_BLOB_STORE_HH

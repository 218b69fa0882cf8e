#include "util/blob_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/status.hh"

namespace fo4::util
{

namespace
{

constexpr char kBlobMagic[8] = {'F', 'O', '4', 'B', 'L', 'O', 'B', '\n'};
constexpr std::size_t kBlobHeaderBytes = 32;

/** One directory entry that is a real blob (never a .tmp leftover). */
struct BlobFile
{
    std::string name;
    std::uint64_t bytes = 0;
    // mtime, nanosecond resolution, for oldest-first eviction order.
    std::int64_t mtimeNs = 0;
};

bool
isTempName(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

/** List real blobs under `dir`; false on a scan error. */
bool
scanBlobs(const std::string &dir, std::vector<BlobFile> &out)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return false;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == ".." || isTempName(name))
            continue;
        struct stat sb;
        const std::string full = dir + "/" + name;
        if (::stat(full.c_str(), &sb) != 0 || !S_ISREG(sb.st_mode))
            continue; // raced with an eviction/unlink: not an error
        out.push_back(
            {name, static_cast<std::uint64_t>(sb.st_size),
             static_cast<std::int64_t>(sb.st_mtim.tv_sec) * 1000000000 +
                 sb.st_mtim.tv_nsec});
    }
    ::closedir(d);
    return true;
}

} // namespace

BlobStore::BlobStore(std::string dir, std::uint64_t cap,
                     std::string counterPrefix)
    : root(std::move(dir)), maxBytes(cap), prefix(std::move(counterPrefix))
{
    if (::mkdir(root.c_str(), 0777) != 0 && errno != EEXIST) {
        throw ConfigError(
            strprintf("cache directory '%s' cannot be created: %s",
                      root.c_str(), std::strerror(errno)));
    }
    struct stat sb;
    if (::stat(root.c_str(), &sb) != 0 || !S_ISDIR(sb.st_mode)) {
        throw ConfigError(strprintf(
            "cache directory '%s' is not a directory", root.c_str()));
    }
}

std::string
BlobStore::pathFor(const std::string &key) const
{
    return root + "/" + key + ".blob";
}

void
BlobStore::countDiskError()
{
    st.diskErrors.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter(prefix + ".disk_error").inc();
}

void
BlobStore::countCorrupt()
{
    st.corrupt.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter(prefix + ".corrupt").inc();
}

std::optional<std::string>
BlobStore::get(const std::string &key)
{
    const auto miss = [&]() -> std::optional<std::string> {
        st.misses.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::global().counter(prefix + ".miss").inc();
        return std::nullopt;
    };
    const std::string path = pathFor(key);
    if (hooks.beforeRead)
        hooks.beforeRead(key, path);
    const WholeFile file = readWholeFile(path);
    if (!file.ok()) {
        if (file.opened || file.error != ENOENT)
            countDiskError();
        return miss();
    }
    const std::string &raw = file.bytes;
    // Verify the frame top to bottom; *any* mismatch quarantines the
    // file (unlink) so a rotten blob costs one recompute, not one
    // failed verification per lookup forever.
    const auto corruptMiss = [&]() -> std::optional<std::string> {
        countCorrupt();
        ::unlink(path.c_str()); // best effort; reader fds stay valid
        return miss();
    };
    if (raw.size() < kBlobHeaderBytes)
        return corruptMiss();
    const auto *head = reinterpret_cast<const unsigned char *>(raw.data());
    if (std::memcmp(head, kBlobMagic, sizeof(kBlobMagic)) != 0)
        return corruptMiss();
    const std::uint32_t version = getU32(head + 8);
    if (version != kBlobVersion) {
        // Version skew is a layout disagreement, not rot: leave the
        // file for whichever build speaks that version.
        return miss();
    }
    const std::uint32_t keyLen = getU32(head + 12);
    const std::uint64_t payloadLen = getU64(head + 16);
    const std::uint32_t payloadCrc = getU32(head + 24);
    std::uint32_t headCrc = crc32(head, 28);
    if (keyLen != key.size() ||
        raw.size() != kBlobHeaderBytes + keyLen + payloadLen)
        return corruptMiss();
    headCrc = crc32(raw.data() + kBlobHeaderBytes, keyLen, headCrc);
    if (getU32(head + 28) != headCrc)
        return corruptMiss();
    if (std::memcmp(raw.data() + kBlobHeaderBytes, key.data(), keyLen) !=
        0)
        return corruptMiss();
    const char *payload = raw.data() + kBlobHeaderBytes + keyLen;
    if (crc32(payload, payloadLen) != payloadCrc)
        return corruptMiss();
    // Bump mtime so the eviction order approximates LRU; purely an
    // optimisation, so a failure here is ignored.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    st.hits.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter(prefix + ".hit").inc();
    return std::string(payload, payloadLen);
}

bool
BlobStore::evictToFit(std::uint64_t incomingBytes)
{
    if (maxBytes == 0)
        return true;
    std::vector<BlobFile> files;
    if (!scanBlobs(root, files)) {
        countDiskError();
        return false;
    }
    std::uint64_t total = incomingBytes;
    for (const auto &f : files)
        total += f.bytes;
    if (total <= maxBytes)
        return true;
    std::sort(files.begin(), files.end(),
              [](const BlobFile &a, const BlobFile &b) {
                  if (a.mtimeNs != b.mtimeNs)
                      return a.mtimeNs < b.mtimeNs;
                  return a.name < b.name; // deterministic tie-break
              });
    for (const auto &f : files) {
        if (total <= maxBytes)
            break;
        if (::unlink((root + "/" + f.name).c_str()) != 0 &&
            errno != ENOENT) {
            countDiskError();
            return false;
        }
        total -= f.bytes;
        st.evictions.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::global().counter(prefix + ".evict").inc();
    }
    return total <= maxBytes;
}

bool
BlobStore::put(const std::string &key, std::string_view payload)
{
    std::lock_guard<std::mutex> lock(putMutex);
    const std::uint64_t recordBytes =
        kBlobHeaderBytes + key.size() + payload.size();
    if (maxBytes != 0 && recordBytes > maxBytes)
        return false; // would evict the whole store and still not fit
    if (!evictToFit(recordBytes))
        return false;

    std::string record;
    record.resize(kBlobHeaderBytes);
    auto *head = reinterpret_cast<unsigned char *>(record.data());
    std::memcpy(head, kBlobMagic, sizeof(kBlobMagic));
    putU32(head + 8, kBlobVersion);
    putU32(head + 12, static_cast<std::uint32_t>(key.size()));
    putU64(head + 16, payload.size());
    putU32(head + 24, crc32(payload.data(), payload.size()));
    putU32(head + 28,
           crc32(key.data(), key.size(), crc32(head, 28)));
    record += key;
    record.append(payload);

    const std::string path = pathFor(key);
    AtomicFile file;
    if (!file.open(path, path + ".tmp." + std::to_string(::getpid()))
             .isOk() ||
        !file.write(record).isOk()) {
        countDiskError();
        return false;
    }
    if (!file.publish().isOk()) {
        countDiskError();
        // Only a failed directory fsync leaves the blob in place: it is
        // readable already, and a cache entry that vanishes on power
        // loss is just a miss, so the store still counts.
        if (!file.renamed())
            return false;
    }
    if (hooks.afterPublish)
        hooks.afterPublish(key, path);
    st.stores.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter(prefix + ".store").inc();
    return true;
}

void
BlobStore::remove(const std::string &key)
{
    ::unlink(pathFor(key).c_str());
}

std::uint64_t
BlobStore::sizeBytes() const
{
    std::vector<BlobFile> files;
    if (!scanBlobs(root, files))
        return 0;
    std::uint64_t total = 0;
    for (const auto &f : files)
        total += f.bytes;
    return total;
}

std::uint64_t
BlobStore::entries() const
{
    std::vector<BlobFile> files;
    if (!scanBlobs(root, files))
        return 0;
    return files.size();
}

} // namespace fo4::util

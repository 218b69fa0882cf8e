/**
 * @file
 * CSV rendering so bench binaries can optionally emit machine-readable
 * series (for replotting figures) alongside the human-readable tables,
 * and a crash-safe output file (AtomicCsvFile) whose content becomes
 * visible all-at-once or not at all.
 */

#ifndef FO4_UTIL_CSV_HH
#define FO4_UTIL_CSV_HH

#include <string>
#include <vector>

#include "util/frame.hh"
#include "util/status.hh"

namespace fo4::util
{

/** Quote and escape a single field if it contains , " or newline. */
std::string csvEscape(const std::string &field);

/** One RFC-4180-ish CSV line: the escaped cells joined by commas and a
 *  trailing newline — exactly what AtomicCsvFile::writeRow writes. */
std::string csvRow(const std::vector<std::string> &cells);

/**
 * Crash-safe CSV output file over util::AtomicFile.  Rows accumulate in
 * `<path>.tmp`; commit() fsyncs and atomically renames onto `path`, so a
 * reader (or a rerun after a crash) never observes a half-written CSV —
 * it sees either the previous complete file or the new complete file.
 * Destroying an uncommitted AtomicCsvFile removes the temporary.
 *
 * Failures to create, write, sync or rename throw
 * JournalError(ErrorCode::JournalIo) — the same durability error class
 * the write-ahead journal uses.  The try* variants return the same
 * failures as a typed Status instead, so a caller mid-sweep can treat a
 * full disk as "no CSV today" rather than an aborted run; writes go
 * through util::AtomicFile and therefore honour the disk-fault hook.
 */
class AtomicCsvFile
{
  public:
    /** Open `<path>.tmp` for writing (truncating any stale leftover). */
    explicit AtomicCsvFile(const std::string &path);

    AtomicCsvFile(const AtomicCsvFile &) = delete;
    AtomicCsvFile &operator=(const AtomicCsvFile &) = delete;

    void writeRow(const std::vector<std::string> &cells);

    /** writeRow() as a Status: ENOSPC/short writes come back typed.
     *  After a failure the temporary is suspect; commit() is refused. */
    Status tryWriteRow(const std::vector<std::string> &cells);

    /**
     * Make the file visible at its final path: flush, fsync, rename,
     * fsync the parent directory.  Call exactly once, after the last
     * row; no rows may be written afterwards.
     */
    void commit();

    /** commit() as a Status (no partial final file on failure: the
     *  rename only happens after a clean fsync of the temporary).  A
     *  failed directory fsync after the rename is an error too, with
     *  the CSV already in place. */
    Status tryCommit();

    bool committed() const { return done; }

    /** Where rows land before commit() (exposed for tests). */
    const std::string &tempPath() const { return file.tempPath(); }

  private:
    AtomicFile file;
    bool done = false;
};

} // namespace fo4::util

#endif // FO4_UTIL_CSV_HH

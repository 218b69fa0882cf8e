#include "util/csv.hh"

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::util
{

std::string
csvEscape(const std::string &field)
{
    const bool needs_quotes =
        field.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
csvRow(const std::vector<std::string> &cells)
{
    std::string row;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            row += ',';
        row += csvEscape(cells[i]);
    }
    row += '\n';
    return row;
}

AtomicCsvFile::AtomicCsvFile(const std::string &path)
{
    if (const Status st = file.open(path, path + ".tmp"); !st.isOk())
        throw JournalError(st.code(), "csv " + st.message());
}

void
AtomicCsvFile::writeRow(const std::vector<std::string> &cells)
{
    if (const Status st = tryWriteRow(cells); !st.isOk())
        throw JournalError(st.code(), st.message());
}

Status
AtomicCsvFile::tryWriteRow(const std::vector<std::string> &cells)
{
    FO4_ASSERT(!done, "writeRow after commit()");
    return file.write(csvRow(cells));
}

void
AtomicCsvFile::commit()
{
    if (const Status st = tryCommit(); !st.isOk())
        throw JournalError(st.code(), st.message());
}

Status
AtomicCsvFile::tryCommit()
{
    FO4_ASSERT(!done, "commit() called twice");
    // Refused after a failed row, since the temporary is suspect.  A
    // failed directory fsync comes back as an error although the CSV
    // is already in place: without it the published file can vanish on
    // power loss (DESIGN.md §8), and a caller asked for durability.
    if (const Status st = file.publish(); !st.isOk())
        return Status(st.code(), "csv " + st.message());
    done = true;
    return Status::ok();
}

} // namespace fo4::util

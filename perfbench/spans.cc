#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "perfbench.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::perfbench
{

namespace
{

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next++;
    return index;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += util::strprintf("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

Tracer::Tracer(bool enabled) : on(enabled), epoch(nowSeconds()) {}

double
Tracer::now() const
{
    return nowSeconds() - epoch;
}

std::uint64_t
Tracer::open(const char *name, const char *category, std::uint64_t parent,
             std::uint64_t sweep, std::string detail)
{
    if (!on)
        return 0;
    SpanRecord r;
    r.parent = parent;
    r.sweep = sweep;
    r.name = name;
    r.category = category;
    r.detail = std::move(detail);
    r.thread = threadIndex();
    r.start = now();
    std::lock_guard<std::mutex> guard(mutex);
    r.id = records.size() + 1;
    records.push_back(std::move(r));
    return records.back().id;
}

void
Tracer::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> guard(mutex);
    records.at(id - 1).end = t;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> guard(mutex);
    return records;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> guard(mutex);
    for (const auto &r : records) {
        if (r.name == name && r.end >= r.start)
            out.push_back(r.end - r.start);
    }
    return out;
}

double
Tracer::coveredSeconds(double from, double to) const
{
    std::vector<std::pair<double, double>> intervals;
    for (const auto &r : spans()) {
        if (r.category == "group" || r.end < r.start)
            continue;
        const double a = std::max(r.start, from);
        const double b = std::min(r.end, to);
        if (b > a)
            intervals.emplace_back(a, b);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0, reach = from;
    for (const auto &[a, b] : intervals) {
        if (b <= reach)
            continue;
        covered += b - std::max(a, reach);
        reach = b;
    }
    return covered;
}

void
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw util::ConfigError("cannot write trace file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &r : spans()) {
        if (r.end < r.start)
            continue;
        out << (first ? "\n" : ",\n");
        first = false;
        out << util::strprintf(
            "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
            "\"sweep\":%llu,\"detail\":%s}}",
            jsonString(r.name).c_str(), jsonString(r.category).c_str(),
            r.thread, r.start * 1e6, (r.end - r.start) * 1e6,
            static_cast<unsigned long long>(r.id),
            static_cast<unsigned long long>(r.parent),
            static_cast<unsigned long long>(r.sweep),
            jsonString(r.detail).c_str());
    }
    out << "\n]}\n";
}

} // namespace fo4::perfbench

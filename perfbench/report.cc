#include "perfbench.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> table = {
        {"setup_s", "s"},         {"sweep_p50_s", "s"},
        {"fresh_p90_s", "s"},     {"cells_per_s", "cells/s"},
        {"peak_rss_mb", "MiB"},
    };
    return table;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> table = {
        {"trace.decode_s", "s"},
        {"trace.decoded_mb", "MiB"},
        {"core.prewarm_s", "s"},
        {"core.ooo_mcycles_per_s", "Mcycles/s"},
        {"core.inorder_mcycles_per_s", "Mcycles/s"},
        {"core.cell_p50_ms", "ms"},
        {"cacti.hit_ratio", "ratio"},
        {"study.cell_p50_ms", "ms"},
        {"study.cell_p90_ms", "ms"},
        {"study.thread_busy_frac", "frac"},
        {"study.mc_duplicate_share", "frac"},
        {"study.cell_codec_us", "us"},
        {"util.journal_append_ms_p50", "ms"},
        {"util.journal_append_ms_p90", "ms"},
        {"util.journal_append_nosync_us", "us"},
        {"util.blob_get_ms", "ms"},
        {"util.blob_put_ms", "ms"},
        {"svc.plan_ms", "ms"},
        {"svc.submit_ms", "ms"},
        {"svc.poll_ms", "ms"},
        {"svc.fetch_ms", "ms"},
        {"svc.dedup_hit_ms", "ms"},
        {"svc.store_hit_ms", "ms"},
        {"svc.frame_us_per_kib", "us/KiB"},
        {"svc.twin_s", "s"},
        {"svc.cells_executed", "count"},
        {"fleet.twin_s", "s"},
        {"fleet.min_worker_share", "frac"},
        {"fleet.redispatched_cells", "count"},
        {"fleet.local_fallbacks", "count"},
        {"fleet.lease_bytes", "bytes"},
        {"unaccounted_frac", "frac"},
        {"trace_overhead_frac", "frac"},
        {"workload.cells_per_sweep", "count"},
        {"workload.instructions_per_cell", "count"},
        {"workload.fresh_cells", "count"},
        {"workload.repeat_share_dedup", "frac"},
        {"workload.repeat_share_store", "frac"},
    };
    return table;
}

namespace
{

bool
nameChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (const char c : name) {
        if (!nameChar(c))
            return false;
    }
    return true;
}

bool
validMetricUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (const char c : unit) {
        if (!nameChar(c) && c != '/' && c != '%')
            return false;
    }
    return true;
}

bool
OpLedger::record(bool ok)
{
    ++nAttempted;
    if (!ok)
        ++nFailed;
    return ok;
}

bool
OpLedger::verify(std::uint64_t expected, std::string_view bytes)
{
    return record(fnv1a(bytes) == expected);
}

std::string
renderResultLine(const RunResult &result, bool traced)
{
    std::string metrics;
    for (const MetricSpec &m :
         traced ? perLayerMetrics() : endToEndMetrics()) {
        const auto it = result.values.find(m.name);
        if (it == result.values.end() && !traced)
            throw util::ConfigError(
                util::strprintf("run did not measure %s", m.name));
        const double value = it == result.values.end() ? 0.0 : it->second;
        if (!std::isfinite(value))
            throw util::ConfigError(
                util::strprintf("%s is not finite", m.name));
        if (!metrics.empty())
            metrics += ", ";
        metrics += util::strprintf("\"%s\": {\"value\": %.17g, "
                                   "\"unit\": \"%s\"}",
                                   m.name, value, m.unit);
    }
    const bool correct =
        result.ops.attempted() > 0 && result.ops.failed() == 0;
    return util::strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}",
        correct ? "true" : "false",
        static_cast<unsigned long long>(result.ops.attempted()),
        static_cast<unsigned long long>(result.ops.failed()),
        metrics.c_str());
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    throw util::ConfigError("VmHWM missing from /proc/self/status");
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace fo4::perfbench

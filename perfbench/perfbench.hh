/**
 * @file
 * Shared pieces of the repository benchmark (README.md beside this
 * file): run options, the metric tables every run reports, the
 * operation ledger that turns digest mismatches into failed operations,
 * and small measurement helpers.
 *
 * Every workload is driven from this one process through the product's
 * public entry points (study::CheckpointedRunner, svc::Server,
 * svc::Coordinator, svc::Worker, svc::Client).  Untraced runs keep the
 * metrics registry off and report the end-to-end table; traced runs
 * turn it on, record spans around the benchmark's own calls into each
 * module and report the per-layer table.
 */

#ifndef FO4_PERFBENCH_PERFBENCH_HH
#define FO4_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fo4::perfbench
{

/** One reported metric: name and unit exactly as BENCHMARK.json lists
 *  them. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Metrics of every untraced run (`--trace 0`), in report order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Metrics of every traced run (`--trace 1`), in report order.  A
 *  layer the workload's path never reaches reports 0. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Is `name` a valid BENCHMARK.json metric name (a letter or digit
 *  first, then at most 63 more of [A-Za-z0-9_.-])? */
bool validMetricName(std::string_view name);

/** Is `unit` a valid BENCHMARK.json unit (1-16 of [A-Za-z0-9_/%.-])? */
bool validMetricUnit(std::string_view unit);

/** What one benchmark process was asked to do. */
struct RunOptions
{
    std::uint64_t seed = 0;
    /** Length of the timed part of the run. */
    double seconds = 0.0;
    /** Traced run: metrics registry on, spans recorded, per-layer table. */
    bool traced = false;
    /** Scratch directory for journals and stores; removed at exit. */
    std::string workDir;
    /** Where a traced run writes its Chrome trace ("" = nowhere). */
    std::string traceOut;
};

/**
 * Operations attempted and failed.  One operation is one sweep: it
 * fails when it throws, times out, or returns bytes whose FNV-1a digest
 * differs from its catalogue entry.
 */
class OpLedger
{
  public:
    /** Record one operation's verdict; returns `ok`. */
    bool record(bool ok);

    /** Check `bytes` against the expected digest and record the
     *  verdict; returns true on a match. */
    bool verify(std::uint64_t expected, std::string_view bytes);

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }

  private:
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
};

/** What one run measured. */
struct RunResult
{
    OpLedger ops;
    /** Metric values by name (units come from the tables). */
    std::map<std::string, double> values;
    /** Set-ups the workload timed in process (svc_mix's mid-run
     *  restart); they join the process start-ups in setup_s. */
    std::vector<double> setupSamples;
};

/**
 * The result line every run ends its stdout with: {"correct",
 * "attempted", "failed", "metrics"}.  Untraced runs must have set every end-to-end metric
 * (a missing one is a benchmark bug and throws); traced runs report
 * every per-layer metric, 0 where the workload set none.
 */
std::string renderResultLine(const RunResult &result, bool traced);

class DigestTable;

/**
 * Run one workload as `options` asks, checking every response against
 * `table`.  An untraced run sets every end-to-end metric but setup_s,
 * which the caller measures in fresh processes (setUpFig5Local and
 * friends below).
 */
RunResult runFig5Local(const RunOptions &options, const DigestTable &table);
RunResult runSvcMix(const RunOptions &options, const DigestTable &table);
RunResult runFleetMc(const RunOptions &options, const DigestTable &table);

/**
 * Bring a workload up over fresh directories under `workDir` exactly as
 * its run does before the first timed sweep (runner built; daemon bound
 * and answering; coordinator up and both workers Live), call `ready`,
 * then tear it down.  One set-up sample of setup_s is a fresh process
 * doing this, timed from spawn until `ready`.
 */
void setUpFig5Local(const std::string &workDir,
                    const std::function<void()> &ready);
void setUpSvcMix(const std::string &workDir,
                 const std::function<void()> &ready);
void setUpFleetMc(const std::string &workDir,
                  const std::function<void()> &ready);

/** Steady-clock seconds (an arbitrary but fixed epoch). */
double nowSeconds();

/** 64-bit FNV-1a over `bytes`. */
std::uint64_t fnv1a(std::string_view bytes);

/** Quantile `q` in [0, 1] by linear interpolation between order
 *  statistics; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

/** Median (quantile 0.5). */
double median(std::vector<double> values);

/** Peak resident set of this process so far, MiB (VmHWM). */
double peakRssMiB();

/** Remove `path` recursively, ignoring absence. */
void removeTree(const std::string &path);

} // namespace fo4::perfbench

#endif // FO4_PERFBENCH_PERFBENCH_HH

#include "study/runner.hh"

#include <charconv>
#include <iterator>

#include "bp/predictors.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "util/logging.hh"
#include "util/means.hh"
#include "util/table.hh"

namespace fo4::study
{

namespace
{

std::vector<double>
collect(const SuiteResult &suite, const trace::BenchClass *cls, bool ipc)
{
    std::vector<double> values;
    for (const auto &b : suite.benchmarks) {
        if (b.failed())
            continue;
        if (cls && b.cls != *cls)
            continue;
        values.push_back(ipc ? b.sim.ipc() : b.bips);
    }
    return values;
}

} // namespace

std::vector<const BenchResult *>
SuiteResult::failures() const
{
    std::vector<const BenchResult *> out;
    for (const auto &b : benchmarks) {
        if (b.failed())
            out.push_back(&b);
    }
    return out;
}

double
SuiteResult::harmonicBips(trace::BenchClass cls) const
{
    const auto values = collect(*this, &cls, false);
    return values.empty() ? 0.0 : util::harmonicMean(values);
}

double
SuiteResult::harmonicBipsAll() const
{
    const auto values = collect(*this, nullptr, false);
    return values.empty() ? 0.0 : util::harmonicMean(values);
}

double
SuiteResult::harmonicIpc(trace::BenchClass cls) const
{
    const auto values = collect(*this, &cls, true);
    return values.empty() ? 0.0 : util::harmonicMean(values);
}

double
SuiteResult::harmonicIpcAll() const
{
    const auto values = collect(*this, nullptr, true);
    return values.empty() ? 0.0 : util::harmonicMean(values);
}

core::StallBreakdown
SuiteResult::aggregateStalls() const
{
    core::StallBreakdown sum;
    for (const auto &b : benchmarks) {
        if (!b.failed())
            sum += b.sim.stalls;
    }
    return sum;
}

std::uint64_t
SuiteResult::totalCycles() const
{
    std::uint64_t sum = 0;
    for (const auto &b : benchmarks) {
        if (!b.failed())
            sum += b.sim.cycles;
    }
    return sum;
}

const char *
simImplName(SimImpl impl)
{
    switch (impl) {
    case SimImpl::Reference:
        return "reference";
    case SimImpl::Batched:
        return "batched";
    }
    return "?";
}

SimImpl
simImplFromName(const std::string &name)
{
    if (name == "reference")
        return SimImpl::Reference;
    if (name == "batched")
        return SimImpl::Batched;
    throw util::ConfigError(util::strprintf(
        "unknown sim_impl '%s' (expected 'reference' or 'batched')",
        name.c_str()));
}

CoreModel
coreModelFromName(const std::string &name)
{
    if (name == "ooo")
        return CoreModel::OutOfOrder;
    if (name == "inorder")
        return CoreModel::InOrder;
    throw util::ConfigError(util::strprintf(
        "unknown core model '%s' (want ooo | inorder)", name.c_str()));
}

const char *
coreModelName(CoreModel model)
{
    return model == CoreModel::OutOfOrder ? "ooo" : "inorder";
}

util::Status
RunSpec::validate() const
{
    util::ErrorCollector errs;
    if (instructions == 0)
        errs.addf("instructions must be positive");
    if (prewarm > UINT64_MAX - warmup ||
        prewarm + warmup > UINT64_MAX - instructions)
        errs.addf("prewarm + warmup + instructions overflows 64 bits");
    if (predictor.empty())
        errs.addf("no branch predictor named");
    else if (const auto st = bp::checkPredictorName(predictor); !st.isOk())
        errs.addf("%s", st.message().c_str());
    return errs.status(util::ErrorCode::InvalidConfig);
}

BenchJob
BenchJob::fromProfile(const trace::BenchmarkProfile &profile)
{
    BenchJob job;
    job.name = profile.name;
    job.cls = profile.cls;
    job.profile = profile;
    return job;
}

BenchJob
BenchJob::fromTraceFile(const std::string &name, trace::BenchClass cls,
                        const std::string &path)
{
    BenchJob job;
    job.name = name;
    job.cls = cls;
    job.tracePath = path;
    return job;
}

std::vector<BenchJob>
jobsFromProfiles(const std::vector<trace::BenchmarkProfile> &profiles)
{
    std::vector<BenchJob> jobs;
    jobs.reserve(profiles.size());
    for (const auto &profile : profiles)
        jobs.push_back(BenchJob::fromProfile(profile));
    return jobs;
}

std::unique_ptr<core::Core>
makeCore(const core::CoreParams &params, const RunSpec &spec)
{
    if (spec.impl == SimImpl::Batched) {
        return spec.model == CoreModel::OutOfOrder
                   ? core::makeBatchedOooCore(params, spec.predictor)
                   : core::makeBatchedInorderCore(params, spec.predictor);
    }
    return spec.model == CoreModel::OutOfOrder
               ? core::makeOooCore(params, spec.predictor)
               : core::makeInorderCore(params, spec.predictor);
}

BenchResult
runJob(const core::CoreParams &params, const tech::ClockModel &clock,
       const BenchJob &job, const RunSpec &spec,
       const util::CancelToken *cancel)
{
    if (!job.profile && job.tracePath.empty()) {
        throw util::ConfigError(
            util::strprintf("job '%s' has neither a profile nor a trace "
                            "file",
                            job.name.c_str()));
    }

    // Build the instruction stream; a corrupt trace file or invalid
    // profile surfaces here as TraceError/ConfigError.  The batched
    // implementation replays the process-wide decoded cache instead of
    // regenerating the stream — identical ops (op.seq == position in
    // both paths), identical errors (load failures are never cached).
    std::unique_ptr<trace::TraceSource> source;
    if (spec.impl == SimImpl::Batched) {
        auto &registry = trace::DecodedTraceRegistry::global();
        source = job.profile ? registry.viewForProfile(*job.profile)
                             : registry.viewForFile(job.tracePath);
    } else if (job.profile) {
        source =
            std::make_unique<trace::SyntheticTraceGenerator>(*job.profile);
    } else {
        // Sniffs the format: capture files and flat v1 traces both work.
        source = trace::openTraceFile(job.tracePath);
    }

    const std::unique_ptr<core::Core> core =
        makeCore(job.params ? *job.params : params, spec);
    if (spec.tracer != nullptr)
        core->setTracer(spec.tracer);
    if (spec.retireSink != nullptr)
        core->setRetireSink(spec.retireSink);

    BenchResult result;
    result.name = job.name;
    result.cls = job.cls;
    result.sim =
        core->run(*source, spec.instructions, spec.warmup, spec.prewarm,
                  job.cycleLimit ? *job.cycleLimit : spec.cycleLimit,
                  cancel);
    priceAtClock(result, clock);
    return result;
}

void
priceAtClock(BenchResult &result, const tech::ClockModel &clock)
{
    result.bips = clock.bips(result.sim.ipc());
}

BenchResult
runBenchmark(const core::CoreParams &params, const tech::ClockModel &clock,
             const trace::BenchmarkProfile &profile, const RunSpec &spec)
{
    return runJob(params, clock, BenchJob::fromProfile(profile), spec);
}

BenchResult
runJobIsolated(const core::CoreParams &params,
               const tech::ClockModel &clock, const BenchJob &job,
               const RunSpec &spec, const util::CancelToken *cancel)
{
    try {
        return runJob(params, clock, job, spec, cancel);
    } catch (const util::CancelledError &) {
        // Cancellation is the caller stopping the run, not the job
        // failing; recording it as a row would make interrupted and
        // uninterrupted sweeps disagree.  Let it escape.
        throw;
    } catch (const util::SimError &e) {
        BenchResult failed;
        failed.name = job.name;
        failed.cls = job.cls;
        failed.error = e.toStatus();
        return failed;
    } catch (const std::exception &e) {
        BenchResult failed;
        failed.name = job.name;
        failed.cls = job.cls;
        failed.error = util::Status(util::ErrorCode::Internal, e.what());
        return failed;
    }
}

void
validateSuiteInputs(const core::CoreParams &params,
                    const tech::ClockModel &clock,
                    const std::vector<BenchJob> &jobs, const RunSpec &spec)
{
    // Suite-level misconfiguration is the caller's bug, not a benchmark
    // fault, so it throws instead of degrading.
    if (jobs.empty())
        throw util::ConfigError("no benchmarks to run");
    if (const auto st = spec.validate(); !st.isOk())
        throw util::ConfigError("run spec: " + st.message());
    params.validateOrThrow();
    if (const auto st = clock.validate(); !st.isOk())
        throw util::ConfigError("clock model: " + st.message());
}

SuiteResult
runSuite(const core::CoreParams &params, const tech::ClockModel &clock,
         const std::vector<BenchJob> &jobs, const RunSpec &spec)
{
    validateSuiteInputs(params, clock, jobs, spec);

    SuiteResult suite;
    suite.benchmarks.reserve(jobs.size());
    for (const auto &job : jobs)
        suite.benchmarks.push_back(runJobIsolated(params, clock, job, spec));
    return suite;
}

SuiteResult
runSuite(const core::CoreParams &params, const tech::ClockModel &clock,
         const std::vector<trace::BenchmarkProfile> &profiles,
         const RunSpec &spec)
{
    return runSuite(params, clock, jobsFromProfiles(profiles), spec);
}

std::string
serializeSuite(const SuiteResult &suite)
{
    std::string out;
    out.reserve(suite.benchmarks.size() * 320);
    // "|v" in decimal, as printf's %d / %llu writes it, with no
    // temporary string.
    const auto field = [&out](auto v) {
        char buf[24] = {'|'};
        out.append(buf, std::to_chars(buf + 1, std::end(buf), v).ptr);
    };
    for (const auto &b : suite.benchmarks) {
        out += b.name.c_str(); // as %s: up to a NUL
        field(static_cast<int>(b.cls));
        core::forEachCounter(field, b.sim);
        out += util::strprintf("|%a|%s|%s\n", b.bips,
                               util::errorCodeName(b.error.code()),
                               b.error.message().c_str());
    }
    return out;
}

void
printSuite(std::ostream &os, const SuiteResult &suite)
{
    util::TextTable table;
    table.setHeader({"benchmark", "class", "status", "IPC", "BIPS"});
    for (const auto &b : suite.benchmarks) {
        if (b.failed()) {
            table.addRow({b.name, trace::benchClassName(b.cls),
                          util::strprintf(
                              "FAILED [%s]",
                              util::errorCodeName(b.error.code())),
                          "-", "-"});
        } else {
            table.addRow({b.name, trace::benchClassName(b.cls), "ok",
                          util::TextTable::num(b.sim.ipc()),
                          util::TextTable::num(b.bips)});
        }
    }
    table.print(os);

    const auto failed = suite.failures();
    if (!failed.empty()) {
        os << "\n" << failed.size() << " of " << suite.benchmarks.size()
           << " benchmarks failed:\n";
        for (const auto *b : failed)
            os << "  " << b->name << ": " << b->error.toString() << "\n";
    }

    const core::StallBreakdown stalls = suite.aggregateStalls();
    const std::uint64_t stallTotal = stalls.total();
    const std::uint64_t cycleTotal = suite.totalCycles();
    if (stallTotal > 0 && cycleTotal > 0) {
        os << "\nstall cycles: " << stallTotal << " of " << cycleTotal
           << util::strprintf(
                  " (%.1f%%), by cause:",
                  100.0 * static_cast<double>(stallTotal) /
                      static_cast<double>(cycleTotal))
           << "\n";
        for (int i = 0; i < core::numStallCauses; ++i) {
            const std::uint64_t v = stalls.byCause[i];
            if (v == 0)
                continue;
            os << util::strprintf(
                "  %-17s %12llu (%.1f%%)\n",
                core::stallCauseName(static_cast<core::StallCause>(i)),
                static_cast<unsigned long long>(v),
                100.0 * static_cast<double>(v) /
                    static_cast<double>(stallTotal));
        }
    }

    os << "\nharmonic mean over " << suite.succeeded() << " of "
       << suite.benchmarks.size()
       << " benchmarks: IPC=" << util::TextTable::num(suite.harmonicIpcAll())
       << " BIPS=" << util::TextTable::num(suite.harmonicBipsAll()) << "\n";
}

} // namespace fo4::study

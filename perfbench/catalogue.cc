#include "catalogue.hh"

#include <array>
#include <fstream>
#include <set>
#include <sstream>

#include "perfbench.hh"
#include "study/checkpoint.hh"
#include "svc/sweep.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

namespace fo4::perfbench
{

namespace
{

/** Seeded Fisher-Yates over 0..n-1 on a counter-based stream, so the
 *  order is the same on every platform and standard library. */
std::vector<std::size_t>
permutation(std::size_t n, const util::RandomStream &stream)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = stream.bits(i) % i;
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

std::vector<std::string>
integerProfileNames()
{
    std::vector<std::string> names;
    for (const auto &p : trace::spec2000Profiles(trace::BenchClass::Integer))
        names.push_back(p.name);
    return names;
}

/** Every three-profile subset of `n` profiles, in lexicographic order. */
std::vector<std::array<std::size_t, 3>>
profileTriples(std::size_t n)
{
    std::vector<std::array<std::size_t, 3>> triples;
    for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = a + 1; b < n; ++b)
            for (std::size_t c = b + 1; c < n; ++c)
                triples.push_back({a, b, c});
    return triples;
}

svc::WireJob
wireJob(const std::string &name)
{
    svc::WireJob job;
    job.name = name;
    return job;
}

constexpr std::uint64_t kMixStream = 0x6d69782d73657121ull;
constexpr std::uint64_t kMcStream = 0x6d632d7365712121ull;

} // namespace

std::vector<double>
fig5Axis()
{
    std::vector<double> axis;
    for (int t = 2; t <= 16; ++t)
        axis.push_back(t);
    return axis;
}

study::RunSpec
fig5Spec(study::SimImpl impl)
{
    study::RunSpec spec;
    spec.instructions = 80000;
    spec.warmup = 10000;
    spec.prewarm = 500000;
    spec.impl = impl;
    return spec;
}

svc::SweepRequest
mixRequest(std::size_t index)
{
    // Entry 2j runs the out-of-order model and 2j+1 the in-order one.
    // Per model, round j / 84 visits every profile triple once, with
    // the run length nudged per round so no two entries coincide.
    // In-order cells run three times the instructions, which puts the
    // two models' sweeps at about the same cost.
    const std::vector<std::string> names = integerProfileNames();
    const auto triples = profileTriples(names.size());
    const std::size_t j = index / 2, round = j / triples.size();
    const bool ooo = index % 2 == 0;
    svc::SweepRequest r;
    r.model = ooo ? "ooo" : "inorder";
    r.instructions = (ooo ? 2000 : 6000) + 10 * round;
    r.warmup = r.instructions / 10;
    r.prewarm = 2000;
    r.tUseful = {4, 5, 6, 7, 8};
    for (const std::size_t p : triples[j % triples.size()])
        r.jobs.push_back(wireJob(names[p]));
    return r;
}

svc::SweepRequest
mcRequest(std::size_t index)
{
    svc::SweepRequest r;
    r.model = "ooo";
    r.instructions = 500;
    r.warmup = 50;
    r.prewarm = 1000;
    r.tUseful = fig5Axis();
    for (const std::string &name : integerProfileNames())
        r.jobs.push_back(wireJob(name));
    r.mcSamples = kMcSamples;
    r.mcDist = "normal";
    r.mcSigmaLatch = 0.08;
    r.mcSigmaDie = 0.05;
    r.mcSeed = 1 + index;
    return r;
}

std::vector<MixSubmission>
mixSequence(std::uint64_t seed)
{
    const util::RandomStream root = util::RandomStream::root(seed ^ kMixStream);
    // Fresh entries alternate models, and within a model each round
    // covers every profile triple once in a seeded order, so whatever
    // the seed, the prefix a run consumes has about the same mix of
    // cheap and costly sweeps.
    const std::size_t perModel = kMixCatalogueSize / 2;
    const std::size_t roundSize =
        profileTriples(integerProfileNames().size()).size();
    std::vector<std::size_t> byModel[2];
    for (std::size_t model = 0; model < 2; ++model) {
        for (std::size_t first = 0; first < perModel; first += roundSize) {
            const std::size_t n = std::min(roundSize, perModel - first);
            for (const std::size_t t :
                 permutation(n, root.child(0).child(model).child(first)))
                byModel[model].push_back(2 * (first + t) + model);
        }
    }
    std::vector<std::size_t> freshOrder;
    for (std::size_t k = 0; k < perModel; ++k) {
        freshOrder.push_back(byModel[0][k]);
        freshOrder.push_back(byModel[1][k]);
    }
    const util::RandomStream slots = root.child(1);
    const util::RandomStream picks = root.child(2);

    std::vector<MixSubmission> out;
    std::vector<std::size_t> seen;
    std::size_t nextFresh = 0;
    for (std::uint64_t block = 0; nextFresh < freshOrder.size(); ++block) {
        // Two fresh positions among five; the first block starts fresh
        // because a repeat needs an earlier request.
        std::size_t first = 0, second = 0;
        if (block == 0) {
            second = 1 + slots.bits(block) % 4;
        } else {
            const std::uint64_t pair = slots.bits(block) % 10;
            std::uint64_t n = 0;
            for (std::size_t a = 0; a < 5; ++a)
                for (std::size_t b = a + 1; b < 5; ++b)
                    if (n++ == pair) {
                        first = a;
                        second = b;
                    }
        }
        for (std::size_t pos = 0; pos < 5; ++pos) {
            if (pos == first || pos == second) {
                const std::size_t entry = freshOrder[nextFresh++];
                seen.push_back(entry);
                out.push_back({entry, true});
            } else {
                const std::uint64_t draw = picks.bits(out.size());
                out.push_back({seen[draw % seen.size()], false});
            }
        }
    }
    return out;
}

std::vector<std::size_t>
mcSequence(std::uint64_t seed)
{
    return permutation(kMcCatalogueSize,
                       util::RandomStream::root(seed ^ kMcStream));
}

DigestTable
DigestTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw util::ConfigError("cannot read digest table " + path);
    DigestTable table;
    std::string line;
    for (int lineNo = 1; std::getline(in, line); ++lineNo) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string workload, hex;
        std::size_t entry = 0;
        if (!(row >> workload >> entry >> hex) || hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
            throw util::ConfigError(util::strprintf(
                "%s:%d: malformed digest row", path.c_str(), lineNo));
        }
        table.set(workload, entry, std::stoull(hex, nullptr, 16));
    }
    return table;
}

std::uint64_t
DigestTable::expect(const std::string &workload, std::size_t entry) const
{
    const auto it = rows.find({workload, entry});
    if (it == rows.end()) {
        throw util::ConfigError(util::strprintf(
            "digest table has no entry %s %zu", workload.c_str(), entry));
    }
    return it->second;
}

void
DigestTable::set(const std::string &workload, std::size_t entry,
                 std::uint64_t digest)
{
    rows[{workload, entry}] = digest;
}

std::string
DigestTable::render() const
{
    std::string out =
        "# FNV-1a 64 digests of the benchmark catalogue's result bytes,\n"
        "# computed on the reference cores.  Regenerate with\n"
        "#   perfbench gen-digests out=perfbench/digests.txt\n";
    for (const auto &[key, digest] : rows) {
        out += util::strprintf("%s %zu %016llx\n", key.first.c_str(),
                               key.second,
                               static_cast<unsigned long long>(digest));
    }
    return out;
}

DigestTable
generateDigests()
{
    constexpr int threads = 4;
    DigestTable table;

    study::CheckpointOptions copts;
    copts.threads = threads;
    study::CheckpointedRunner runner(std::move(copts));
    const auto points =
        runner.sweepScaling(fig5Axis(), study::SweepOptions{},
                            trace::spec2000Profiles(),
                            fig5Spec(study::SimImpl::Reference));
    for (std::size_t p = 0; p < points.size(); ++p)
        table.set("fig5_local", p,
                  fnv1a(study::serializeSuite(points[p].suite)));

    const auto service = [&](const char *workload, std::size_t count,
                             svc::SweepRequest (*request)(std::size_t)) {
        // The wire round trip first, exactly as a daemon sees the
        // request; planSweep leaves the plan on the reference cores.
        std::vector<svc::SweepPlan> plans;
        std::set<std::uint64_t> fingerprints;
        for (std::size_t i = 0; i < count; ++i) {
            plans.push_back(svc::planSweep(
                svc::SweepRequest::decode(request(i).encode())));
            if (!fingerprints.insert(svc::planFingerprint(plans.back()))
                     .second) {
                throw util::ConfigError(util::strprintf(
                    "%s catalogue entry %zu repeats an earlier grid",
                    workload, i));
            }
        }
        std::vector<std::uint64_t> digests(count);
        util::ThreadPool pool(threads);
        util::TaskGroup group(pool);
        for (std::size_t i = 0; i < count; ++i) {
            group.submit([&, i] {
                digests[i] = fnv1a(
                    svc::runSweep(plans[i], 1, "", nullptr, {}));
            });
        }
        group.wait();
        for (std::size_t i = 0; i < count; ++i)
            table.set(workload, i, digests[i]);
    };
    service("svc_mix", kMixCatalogueSize, mixRequest);
    service("fleet_mc", kMcCatalogueSize, mcRequest);
    return table;
}

} // namespace fo4::perfbench

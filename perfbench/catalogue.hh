/**
 * @file
 * The benchmark's inputs: the Fig 5 grid, the request catalogues the
 * service workloads draw from, the seeded request sequences, and the
 * committed table of expected result digests (digests.txt).
 *
 * Catalogue entries are pure functions of their index, so the digest
 * table can pin every response the benchmark may see.  A seed only
 * chooses which entries a run submits and in what order; the program
 * under test never sees the seed.
 */

#ifndef FO4_PERFBENCH_CATALOGUE_HH
#define FO4_PERFBENCH_CATALOGUE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "study/runner.hh"
#include "svc/protocol.hh"

namespace fo4::perfbench
{

/** Distinct requests svc_mix can submit: over five times the 450-750
 *  fresh sweeps a 30 s run uses at this head.  A run that uses them all
 *  up before its time is over fails. */
constexpr std::size_t kMixCatalogueSize = 4096;
/** Distinct Monte Carlo sweeps fleet_mc can submit: over fifteen times
 *  the 8-17 a 30 s run uses at this head. */
constexpr std::size_t kMcCatalogueSize = 256;
/** Dice per fleet_mc sweep. */
constexpr std::uint64_t kMcSamples = 8;

/** The paper's t_useful axis, 2..16 FO4. */
std::vector<double> fig5Axis();

/** bench_fig5_ooo's default run length on the given engine. */
study::RunSpec fig5Spec(study::SimImpl impl);

/**
 * svc_mix entry `index`: a small sweep of three integer profiles over
 * t_useful 4..8 FO4.  Even entries run the out-of-order model (about
 * 2000 instructions per cell), odd ones the in-order model (about
 * 6000, so both models' sweeps cost about the same).  Distinct indices
 * give distinct grids.
 */
svc::SweepRequest mixRequest(std::size_t index);

/**
 * fleet_mc entry `index`: a protocol-v4 Monte Carlo sweep (kMcSamples
 * dice, non-zero latch and die sigmas, its own mc_seed) of tiny
 * out-of-order cells over the nine integer profiles x 2..16 FO4.
 */
svc::SweepRequest mcRequest(std::size_t index);

/** One svc_mix submission: a catalogue entry, and whether it is the
 *  entry's first submission in the run. */
struct MixSubmission
{
    std::size_t entry = 0;
    bool fresh = true;

    bool operator==(const MixSubmission &) const = default;
};

/**
 * The svc_mix request sequence for `seed`.  Every block of five
 * submissions holds exactly two fresh entries and three repeats, so 60%
 * of submissions repeat an earlier request; the first submission is
 * fresh.  Fresh entries alternate models and visit the profile triples
 * round by round, each round in a seeded order, so every run sees
 * about the same cost mix; a repeat re-submits an earlier entry chosen
 * uniformly.  The sequence ends when the catalogue is used up.
 */
std::vector<MixSubmission> mixSequence(std::uint64_t seed);

/** The fleet_mc sequence for `seed`: a seeded permutation of the
 *  catalogue, so every submission in a run is distinct. */
std::vector<std::size_t> mcSequence(std::uint64_t seed);

/**
 * Expected FNV-1a digests, one per catalogue entry: svc::renderResults
 * bytes for svc_mix and fleet_mc, study::serializeSuite bytes per grid
 * point for fig5_local.
 */
class DigestTable
{
  public:
    /** Parse digests.txt; throws ConfigError when unreadable or
     *  malformed. */
    static DigestTable load(const std::string &path);

    /** The expected digest; throws ConfigError for an unknown entry. */
    std::uint64_t expect(const std::string &workload,
                         std::size_t entry) const;

    void set(const std::string &workload, std::size_t entry,
             std::uint64_t digest);

    /** Canonical text: header comment, then one sorted row per entry. */
    std::string render() const;

    bool operator==(const DigestTable &) const = default;

  private:
    std::map<std::pair<std::string, std::size_t>, std::uint64_t> rows;
};

/**
 * Compute the whole table on the reference cores (sim_impl=reference),
 * four sweeps at a time.  Throws InvalidConfig if two catalogue entries
 * of one workload share a grid fingerprint.
 */
DigestTable generateDigests();

} // namespace fo4::perfbench

#endif // FO4_PERFBENCH_CATALOGUE_HH

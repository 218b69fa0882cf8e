/**
 * @file
 * The clock-period model from Section 2 of the paper:
 *
 *     T = t_useful + t_overhead,
 *     t_overhead = t_latch + t_skew + t_jitter,
 *
 * with the paper's values of 1.0 / 0.3 / 0.5 FO4 (Table 1).  Skew and
 * jitter come from Kurd et al.'s multi-domain clocking measurements at
 * 180nm (20 ps skew, 35 ps jitter) converted to FO4, and are assumed to
 * scale linearly with technology, so they are constants in FO4.
 */

#ifndef FO4_TECH_CLOCKING_HH
#define FO4_TECH_CLOCKING_HH

#include <limits>

#include "tech/fo4.hh"
#include "util/status.hh"

namespace fo4::tech
{

/** Per-stage clocking overheads, all in FO4. */
struct OverheadModel
{
    double latchFo4 = 1.0;
    double skewFo4 = 0.3;
    double jitterFo4 = 0.5;

    double totalFo4() const { return latchFo4 + skewFo4 + jitterFo4; }

    /** The paper's Table 1 values (1.0 + 0.3 + 0.5 = 1.8 FO4). */
    static OverheadModel paperDefault() { return OverheadModel{}; }

    /** A uniform total with unspecified decomposition (Fig 6 sweeps). */
    static OverheadModel
    uniform(double totalFo4)
    {
        return OverheadModel{totalFo4, 0.0, 0.0};
    }

    /**
     * Validated constructor for *computed* overheads — Monte Carlo
     * sampled draws, user-supplied decompositions — where a negative or
     * non-finite component is a real possibility.  Rejects such values
     * with a typed ConfigError naming every bad component at once,
     * rather than clamping them silently: a clamped draw would corrupt
     * the sampled distribution and still fingerprint as legitimate.
     */
    static OverheadModel validated(double latchFo4, double skewFo4,
                                   double jitterFo4);

    /**
     * Skew and jitter derived from Kurd et al.'s absolute numbers at a
     * given measurement node, rounded to one decimal as in the paper.
     */
    static OverheadModel fromKurdMeasurements(Technology measuredAt,
                                              double latchFo4 = 1.0);
};

/**
 * Longest latency a ClockModel is meant to quantise, in FO4: a wide
 * ceiling over the model's longest path (a ~100 ns DRAM access is about
 * 2,800 FO4 at 100nm).
 */
constexpr double kMaxLatencyFo4 = 1.0e6;

/** The smallest t_useful whose cycle count for kMaxLatencyFo4 still
 *  fits an int; ClockModel::validate() refuses anything below it. */
constexpr double kMinUsefulFo4 =
    kMaxLatencyFo4 / std::numeric_limits<int>::max();

/** A clock: useful logic depth plus overhead, at a technology node. */
struct ClockModel
{
    Technology tech = tech100nm();
    double tUsefulFo4 = 6.0;
    OverheadModel overhead = OverheadModel::paperDefault();

    double periodFo4() const { return tUsefulFo4 + overhead.totalFo4(); }
    double periodPs() const { return tech.toPs(periodFo4()); }
    double frequencyGhz() const { return tech.frequencyGhz(periodFo4()); }

    /**
     * Pipeline cycles needed for a piece of logic with the given latency
     * (in FO4): ceil(latency / t_useful), minimum one cycle.  Matches the
     * paper's quantization of Table 3.  Throws ConfigError when the
     * count does not fit an int.
     */
    int latencyCycles(double latencyFo4) const;

    /** BIPS for a given IPC at this clock. */
    double bips(double ipc) const { return ipc * frequencyGhz(); }

    /** Check every range rule, reporting all violations at once: a
     *  finite t_useful of at least kMinUsefulFo4, and finite,
     *  non-negative overheads. */
    util::Status validate() const;
};

} // namespace fo4::tech

#endif // FO4_TECH_CLOCKING_HH

#include "study/scaling.hh"

#include "cacti/latency_cache.hh"
#include "isa/latencies.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::study
{

tech::ClockModel
scaledClock(double tUseful, const tech::OverheadModel &overhead)
{
    tech::ClockModel clock;
    clock.tech = tech::tech100nm();
    clock.tUsefulFo4 = tUseful;
    clock.overhead = overhead;
    return clock;
}

core::CoreParams
scaledCoreParams(double tUseful, const ScalingOptions &options,
                 const cacti::StructureModel &model)
{
    // Only t_useful matters for cycle quantization; overhead changes the
    // frequency, not the latencies (paper Section 3.3).  The clock's own
    // range rules refuse a NaN, infinite or vanishing t_useful here,
    // typed, before any latency is quantised.
    tech::ClockModel clock = scaledClock(tUseful);
    if (const util::Status st = clock.validate(); !st.isOk())
        throw util::ConfigError(st.message());

    core::CoreParams p = core::CoreParams::alpha21264();
    using SK = cacti::StructureKind;

    // Structure latencies are pure functions of (calibration, kind,
    // capacity); the process-wide memo computes each distinct point
    // once across the whole sweep grid.
    const auto lat = [&model](SK kind, std::uint64_t capacity) {
        return cacti::LatencyCache::global().latencyFo4(model, kind,
                                                        capacity);
    };

    // Functional-unit latencies: 21264 cycles x 17.4 FO4, re-quantized.
    for (int i = 0; i < isa::numOpClasses; ++i) {
        p.execCycles[i] =
            isa::executeCycles(static_cast<isa::OpClass>(i), clock);
    }

    // Pipeline segment depths from structure access times.
    p.fetchStages =
        clock.latencyCycles(lat(SK::BranchPredictor,
                                model.alphaCapacity(SK::BranchPredictor)));
    p.decodeStages = clock.latencyCycles(options.baseStageFo4);
    p.renameStages = clock.latencyCycles(
        lat(SK::RenameTable, model.alphaCapacity(SK::RenameTable)));
    p.regReadStages = clock.latencyCycles(
        lat(SK::RegisterFile, model.alphaCapacity(SK::RegisterFile)));
    p.commitStages = clock.latencyCycles(options.baseStageFo4);

    // Issue window: a monolithic window's wakeup loop is its access
    // latency; a segmented window (Section 5) always has a one-cycle
    // loop per stage, with the ripple delay modelled by the window.
    p.window = options.window;
    p.window.capacity = options.windowEntries;
    if (options.window.wakeupStages > 1 ||
        options.window.select == core::SelectModel::Partitioned) {
        p.issueLatency = 1;
    } else {
        p.issueLatency = clock.latencyCycles(
            lat(SK::IssueWindow, options.windowEntries));
    }

    // Memory system.
    if (options.crayMemory) {
        p.memoryMode = mem::MemoryMode::Flat;
        p.memLatencies.flat =
            clock.latencyCycles(cacti::crayMemoryFo4());
    } else {
        p.memoryMode = mem::MemoryMode::TwoLevel;
        p.dl1.capacityBytes = options.dl1Bytes;
        p.l2.capacityBytes = options.l2Bytes;
        p.memLatencies.dl1 = clock.latencyCycles(
            lat(SK::DL1, options.dl1Bytes));
        p.memLatencies.l2 = clock.latencyCycles(
            lat(SK::L2, options.l2Bytes));
        p.memLatencies.memory =
            clock.latencyCycles(cacti::modernMemoryFo4());
        // The L1<->L2 fill bus is on-chip and clocked with the core, so
        // its occupancy stays constant in cycles; the memory channel has
        // fixed absolute bandwidth, so its occupancy is an FO4 figure.
        p.memLatencies.l2BusCycles = 8;
        p.memLatencies.memBusCycles =
            clock.latencyCycles(cacti::memoryBusFo4());
    }

    p.extraMispredictPenalty = options.extraMispredictPenalty;
    p.extraLoadUse = options.extraLoadUse;
    p.extraWakeup = options.extraWakeup;

    // Wire-delay extension (Section 7 future work): constant-FO4 wire
    // latency on the fetch-redirect and L2 paths.
    if (options.wirePenaltyFo4 > 0.0) {
        const int wireCycles = clock.latencyCycles(options.wirePenaltyFo4);
        p.extraMispredictPenalty += wireCycles;
        if (!options.crayMemory)
            p.memLatencies.l2 += wireCycles;
    }

    p.validateOrThrow();
    return p;
}

} // namespace fo4::study

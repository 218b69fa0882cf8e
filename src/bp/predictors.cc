#include "bp/predictors.hh"

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::bp
{

namespace
{

bool
isPowerOfTwo(std::size_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

Bimodal::Bimodal(std::size_t entries)
    : table(entries)
{
    FO4_ASSERT(isPowerOfTwo(entries), "table size must be a power of two");
}

std::size_t
Bimodal::index(std::uint64_t pc) const
{
    return (pc >> 2) & (table.size() - 1);
}

bool
Bimodal::predict(const isa::MicroOp &op)
{
    return table[index(op.pc)].predictTaken();
}

void
Bimodal::update(const isa::MicroOp &op, bool taken)
{
    table[index(op.pc)].train(taken);
}

void
Bimodal::reset()
{
    std::fill(table.begin(), table.end(), util::SatCounter<2>());
}

GShare::GShare(std::size_t entries, int historyBits)
    : table(entries), historyMask((1ull << historyBits) - 1)
{
    FO4_ASSERT(isPowerOfTwo(entries), "table size must be a power of two");
    FO4_ASSERT(historyBits >= 1 && historyBits <= 24, "bad history length");
}

std::size_t
GShare::index(std::uint64_t pc) const
{
    return ((pc >> 2) ^ history) & (table.size() - 1);
}

bool
GShare::predict(const isa::MicroOp &op)
{
    return table[index(op.pc)].predictTaken();
}

void
GShare::update(const isa::MicroOp &op, bool taken)
{
    table[index(op.pc)].train(taken);
    history = ((history << 1) | (taken ? 1 : 0)) & historyMask;
}

void
GShare::reset()
{
    std::fill(table.begin(), table.end(), util::SatCounter<2>());
    history = 0;
}

LocalHistory::LocalHistory(std::size_t historyEntries, int historyBits,
                           std::size_t counterEntries)
    : histories(historyEntries, 0), counters(counterEntries),
      historyMask((1ull << historyBits) - 1)
{
    FO4_ASSERT(isPowerOfTwo(historyEntries) && isPowerOfTwo(counterEntries),
               "table sizes must be powers of two");
    FO4_ASSERT((1ull << historyBits) >= counterEntries ||
                   historyBits <= 16,
               "history cannot index the counter table");
}

bool
LocalHistory::predict(const isa::MicroOp &op)
{
    const std::size_t hIdx = (op.pc >> 2) & (histories.size() - 1);
    const std::size_t cIdx = histories[hIdx] & (counters.size() - 1);
    return counters[cIdx].predictTaken();
}

void
LocalHistory::update(const isa::MicroOp &op, bool taken)
{
    const std::size_t hIdx = (op.pc >> 2) & (histories.size() - 1);
    const std::size_t cIdx = histories[hIdx] & (counters.size() - 1);
    counters[cIdx].train(taken);
    histories[hIdx] = static_cast<std::uint16_t>(
        ((histories[hIdx] << 1) | (taken ? 1 : 0)) & historyMask);
}

void
LocalHistory::reset()
{
    std::fill(histories.begin(), histories.end(), 0);
    std::fill(counters.begin(), counters.end(), util::SatCounter<3>());
}

Tournament::Tournament()
    : local(1024, 10, 1024), global(4096), choice(4096)
{
}

bool
Tournament::predict(const isa::MicroOp &op)
{
    const bool localPred = local.predict(op);
    const bool globalPred =
        global[((op.pc >> 2) ^ history) & historyMask].predictTaken();
    const bool useGlobal = choice[(op.pc >> 2) & historyMask].predictTaken();
    return useGlobal ? globalPred : localPred;
}

void
Tournament::update(const isa::MicroOp &op, bool taken)
{
    const bool localPred = local.predict(op);
    const bool globalPred =
        global[((op.pc >> 2) ^ history) & historyMask].predictTaken();

    // Train the chooser only when the two components disagree.  The
    // chooser is indexed by PC so each static branch settles on its
    // better component.
    if (localPred != globalPred)
        choice[(op.pc >> 2) & historyMask].train(globalPred == taken);

    global[((op.pc >> 2) ^ history) & historyMask].train(taken);
    local.update(op, taken);
    history = (history << 1) | (taken ? 1 : 0);
}

void
Tournament::reset()
{
    local.reset();
    std::fill(global.begin(), global.end(), util::SatCounter<2>());
    std::fill(choice.begin(), choice.end(), util::SatCounter<2>());
    history = 0;
}

namespace
{

template <class P>
std::unique_ptr<BranchPredictor>
make()
{
    return std::make_unique<P>();
}

/** The one list of predictor names, in the order messages give them. */
const struct
{
    const char *name;
    std::unique_ptr<BranchPredictor> (*make)();
} kPredictors[] = {
    {"perfect", make<PerfectPredictor>},
    {"taken", make<AlwaysTaken>},
    {"bimodal", make<Bimodal>},
    {"gshare", make<GShare>},
    {"local", make<LocalHistory>},
    {"tournament", make<Tournament>},
};

} // namespace

util::Status
checkPredictorName(const std::string &name)
{
    for (const auto &known : kPredictors) {
        if (name == known.name)
            return util::Status::ok();
    }
    std::string names;
    for (const auto &known : kPredictors) {
        if (!names.empty())
            names += ", ";
        names += known.name;
    }
    return util::Status(
        util::ErrorCode::InvalidConfig,
        util::strprintf("unknown branch predictor '%s' (expected one of "
                        "%s)",
                        name.c_str(), names.c_str()));
}

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &name)
{
    for (const auto &known : kPredictors) {
        if (name == known.name)
            return known.make();
    }
    throw util::ConfigError(checkPredictorName(name).message());
}

} // namespace fo4::bp

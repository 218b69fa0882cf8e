/**
 * @file
 * Concrete branch predictors: always-taken, perfect, bimodal, gshare,
 * local-history, and the Alpha 21264-style tournament predictor the
 * scaled machine uses.
 */

#ifndef FO4_BP_PREDICTORS_HH
#define FO4_BP_PREDICTORS_HH

#include <memory>
#include <string>
#include <vector>

#include "bp/predictor.hh"
#include "util/sat_counter.hh"
#include "util/status.hh"

namespace fo4::bp
{

/** Predicts every branch taken.  Baseline / test double. */
class AlwaysTaken : public BranchPredictor
{
  public:
    bool predict(const isa::MicroOp &) override { return true; }
    void update(const isa::MicroOp &, bool) override {}
    void reset() override {}
    const char *name() const override { return "always-taken"; }
    std::unique_ptr<BranchPredictor> clone() const override
    {
        return std::make_unique<AlwaysTaken>(*this);
    }
};

/** Oracle: always correct.  Used to isolate non-branch effects. */
class PerfectPredictor : public BranchPredictor
{
  public:
    bool predict(const isa::MicroOp &op) override { return op.taken; }
    void update(const isa::MicroOp &, bool) override {}
    void reset() override {}
    const char *name() const override { return "perfect"; }
    std::unique_ptr<BranchPredictor> clone() const override
    {
        return std::make_unique<PerfectPredictor>(*this);
    }
};

/** Classic bimodal table of 2-bit counters indexed by PC. */
class Bimodal : public BranchPredictor
{
  public:
    explicit Bimodal(std::size_t entries = 4096);

    bool predict(const isa::MicroOp &op) override;
    void update(const isa::MicroOp &op, bool taken) override;
    void reset() override;
    const char *name() const override { return "bimodal"; }
    std::unique_ptr<BranchPredictor> clone() const override
    {
        return std::make_unique<Bimodal>(*this);
    }

  private:
    std::size_t index(std::uint64_t pc) const;
    std::vector<util::SatCounter<2>> table;
};

/** Gshare: global history XOR PC indexes a table of 2-bit counters. */
class GShare : public BranchPredictor
{
  public:
    explicit GShare(std::size_t entries = 4096, int historyBits = 12);

    bool predict(const isa::MicroOp &op) override;
    void update(const isa::MicroOp &op, bool taken) override;
    void reset() override;
    const char *name() const override { return "gshare"; }
    std::unique_ptr<BranchPredictor> clone() const override
    {
        return std::make_unique<GShare>(*this);
    }

  private:
    std::size_t index(std::uint64_t pc) const;
    std::vector<util::SatCounter<2>> table;
    std::uint64_t history = 0;
    std::uint64_t historyMask;
};

/** Per-branch local-history predictor (21264 local half). */
class LocalHistory : public BranchPredictor
{
  public:
    LocalHistory(std::size_t historyEntries = 1024, int historyBits = 10,
                 std::size_t counterEntries = 1024);

    bool predict(const isa::MicroOp &op) override;
    void update(const isa::MicroOp &op, bool taken) override;
    void reset() override;
    const char *name() const override { return "local"; }
    std::unique_ptr<BranchPredictor> clone() const override
    {
        return std::make_unique<LocalHistory>(*this);
    }

  private:
    std::vector<std::uint16_t> histories;
    std::vector<util::SatCounter<3>> counters;
    std::uint64_t historyMask;
};

/**
 * Alpha 21264-style tournament predictor: a local-history predictor and
 * a global-history predictor arbitrated by a choice table indexed by
 * global history.
 */
class Tournament : public BranchPredictor
{
  public:
    Tournament();

    bool predict(const isa::MicroOp &op) override;
    void update(const isa::MicroOp &op, bool taken) override;
    void reset() override;
    const char *name() const override { return "tournament"; }
    std::unique_ptr<BranchPredictor> clone() const override
    {
        return std::make_unique<Tournament>(*this);
    }

  private:
    LocalHistory local;
    std::vector<util::SatCounter<2>> global;
    std::vector<util::SatCounter<2>> choice;
    std::uint64_t history = 0;
    static constexpr std::uint64_t historyMask = 0xfff; // 12 bits
};

/** Factory by name: "perfect", "taken", "bimodal", "gshare", "local",
 *  "tournament".  Throws ConfigError on unknown names. */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &name);

/** Ok when makePredictor accepts `name`, else the InvalidConfig it
 *  would throw — so a run can refuse the name before any cell runs. */
util::Status checkPredictorName(const std::string &name);

} // namespace fo4::bp

#endif // FO4_BP_PREDICTORS_HH

#include "core/warm_start.hh"

#include "core/prewarm.hh"
#include "util/metrics.hh"
#include "util/status.hh"

namespace fo4::core
{

WarmStartCache &
WarmStartCache::global()
{
    static WarmStartCache cache;
    return cache;
}

std::shared_ptr<const WarmState>
WarmStartCache::acquire(trace::DecodedTrace &trace, std::uint64_t prewarm,
                        const CoreParams &params,
                        const bp::BranchPredictor &prototype,
                        const std::string &predictorKey)
{
    const std::string key = util::strprintf(
        "%s;%llu;%s;%llu/%u/%u;%llu/%u/%u;%d", trace.key().c_str(),
        static_cast<unsigned long long>(prewarm), predictorKey.c_str(),
        static_cast<unsigned long long>(params.dl1.capacityBytes),
        params.dl1.lineBytes, params.dl1.associativity,
        static_cast<unsigned long long>(params.l2.capacityBytes),
        params.l2.lineBytes, params.l2.associativity,
        static_cast<int>(params.memoryMode));

    auto state = states.get(key, [&] {
        static auto &built =
            util::MetricsRegistry::global().counter("core.warm_state.built");
        auto warm = std::make_shared<WarmState>(
            WarmState{mem::MemoryHierarchy(params.dl1, params.l2,
                                           params.memLatencies,
                                           params.memoryMode),
                      prototype.clone()});
        warm->bpred->reset();
        const auto source = trace.freshSource();
        prewarmState(*source, prewarm, warm->memory, *warm->bpred);
        built.inc();
        return std::shared_ptr<const WarmState>(std::move(warm));
    });

    static auto &served =
        util::MetricsRegistry::global().counter("core.warm_state.served");
    served.inc();
    return state;
}

void
WarmStartCache::clear()
{
    states.clear();
}

} // namespace fo4::core

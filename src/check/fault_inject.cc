#include "check/fault_inject.h"

#include <algorithm>

#include "sim/log.h"
#include "snapshot/archive.h"
#include "stats/registry.h"

namespace hh::check {

FaultInjector::FaultInjector(hh::sim::Simulator &sim,
                             std::uint64_t seed, const FaultConfig &cfg)
    : cfg_(cfg), rng_(seed, 0xFA17ULL),
      task_(sim, hh::snap::SnapTag::kFaultTick, [this] { return tick(); })
{
    if (cfg_.meanPeriod == 0)
        hh::sim::fatal("FaultInjector: meanPeriod must be > 0");
}

void
FaultInjector::addAction(std::string name, Action fn)
{
    if (!fn)
        hh::sim::panic("FaultInjector::addAction: null action ", name);
    actions_.push_back({std::move(name), std::move(fn), 0});
}

void
FaultInjector::start()
{
    if (!actions_.empty())
        task_.start(std::max<hh::sim::Cycles>(1, cfg_.startAt));
}

hh::sim::Cycles
FaultInjector::tick()
{
    ++ticks_;
    for (unsigned i = 0;
         i < cfg_.actionsPerTick && fired_ < cfg_.maxActions; ++i) {
        Named &a = actions_[rng_.uniformInt(
            static_cast<std::uint64_t>(actions_.size()))];
        ++a.fired;
        ++fired_;
        a.fn(rng_);
    }
    if (fired_ >= cfg_.maxActions)
        return 0;
    return static_cast<hh::sim::Cycles>(std::max(
        1.0,
        rng_.exponential(static_cast<double>(cfg_.meanPeriod))));
}

std::uint64_t
FaultInjector::actionCount(const std::string &name) const
{
    for (const auto &a : actions_) {
        if (a.name == name)
            return a.fired;
    }
    return 0;
}

void
FaultInjector::serialize(hh::snap::Archive &ar)
{
    ar.io(rng_);
    ar.io(fired_);
    ar.io(ticks_);
    // No running byte in this section: the pending id alone.
    task_.serializePending(ar);
    std::uint64_t n = actions_.size();
    ar.io(n);
    if (ar.loading() && n != actions_.size()) {
        ar.fail("checkpoint fault-injector action list has " +
                std::to_string(n) + " entries, this run registered " +
                std::to_string(actions_.size()));
        return;
    }
    for (auto &a : actions_)
        ar.io(a.fired);
}

void
FaultInjector::registerMetrics(hh::stats::MetricRegistry &reg,
                               const std::string &prefix)
{
    reg.registerCounter(prefix + ".ticks", ticks_);
    reg.registerCounter(prefix + ".actions", fired_);
    for (auto &a : actions_)
        reg.registerCounter(prefix + ".action." + a.name, a.fired);
}

} // namespace hh::check

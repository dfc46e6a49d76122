#include "mem/dram.h"

#include <algorithm>

#include "sim/log.h"
#include "stats/registry.h"

namespace hh::mem {

using hh::sim::Cycles;

Dram::Dram(const DramConfig &cfg) : cfg_(cfg)
{
    if (cfg.controllers == 0)
        hh::sim::fatal("Dram: need at least one controller");
    if (cfg.window == 0)
        hh::sim::fatal("Dram: window must be positive");
}

const Dram::Window *
Dram::findWindow(std::uint64_t id) const
{
    const Window &w = ring_[id % kRing];
    return w.id == id ? &w : nullptr;
}

Dram::Window &
Dram::touchWindow(std::uint64_t id)
{
    Window &w = ring_[id % kRing];
    if (w.id != id) {
        w.id = id;
        w.busy = 0;
    }
    return w;
}

double
Dram::utilization(Cycles now) const
{
    const std::uint64_t id = now / cfg_.window;
    // Blend the previous (complete) window with the current partial
    // one so utilization responds to bursts without discontinuities.
    double busy = 0;
    if (const Window *prev = id ? findWindow(id - 1) : nullptr)
        busy += static_cast<double>(prev->busy);
    if (const Window *cur = findWindow(id))
        busy += static_cast<double>(cur->busy);
    const double capacity = 2.0 *
                            static_cast<double>(cfg_.window) *
                            static_cast<double>(cfg_.controllers);
    return std::min(cfg_.maxRho, busy / capacity);
}

Cycles
Dram::access(Cycles now, hh::cache::Addr key, unsigned weight)
{
    (void)key;
    const double rho = utilization(now);
    // M/D/1 expected waiting time: service * rho / (2 * (1 - rho)).
    const double service =
        static_cast<double>(cfg_.servicePerAccess);
    const auto queue_delay = static_cast<Cycles>(
        service * rho / (2.0 * (1.0 - rho)));

    touchWindow(now / cfg_.window).busy +=
        cfg_.servicePerAccess * std::max(1u, weight);

    ++accesses_;
    total_queue_delay_ += queue_delay;
    return cfg_.baseLatency + queue_delay;
}

double
Dram::avgQueueDelay() const
{
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(total_queue_delay_) /
                                static_cast<double>(accesses_);
}

void
Dram::registerMetrics(hh::stats::MetricRegistry &reg,
                      const std::string &prefix,
                      std::function<hh::sim::Cycles()> now)
{
    reg.registerCounter(prefix + ".accesses", accesses_);
    reg.registerGauge(prefix + ".queue_delay.avg",
                      [this] { return avgQueueDelay(); });
    reg.registerGauge(prefix + ".util", [this, now = std::move(now)] {
        return utilization(now());
    });
}

} // namespace hh::mem

#include "cpu/core.h"

namespace hh::cpu {

Core::Core(unsigned id, const hh::cache::HierarchyConfig &cfg,
           hh::cache::SetAssocArray *l3, hh::mem::Dram *dram,
           hh::cache::ColumnArena *arena)
    : id_(id), hier_(std::make_unique<hh::cache::CoreHierarchy>(
                   cfg, l3, dram, arena))
{
}

void
Core::setState(hh::sim::Cycles now, CoreState s)
{
    busy_.setBusy(now, s != CoreState::Idle);
    state_ = s;
}

void
Core::registerMetrics(hh::stats::MetricRegistry &reg,
                      const std::string &prefix,
                      hh::stats::MetricRegistry::NowFn now)
{
    hier_->registerMetrics(reg, prefix);
    reg.registerUtilization(prefix + ".busy", busy_, std::move(now));
}

} // namespace hh::cpu

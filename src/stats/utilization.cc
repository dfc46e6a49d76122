#include "stats/utilization.h"

#include "sim/log.h"

namespace hh::stats {

using hh::sim::Cycles;

void
UtilizationTracker::setBusy(Cycles now, bool busy)
{
    if (now < last_change_)
        hh::sim::panic("UtilizationTracker: time went backwards");
    if (busy_ == busy)
        return;
    if (busy_)
        accumulated_ += now - last_change_;
    busy_ = busy;
    last_change_ = now;
}

Cycles
UtilizationTracker::busyCycles(Cycles now) const
{
    Cycles total = accumulated_;
    if (busy_ && now > last_change_)
        total += now - last_change_;
    return total;
}

double
UtilizationTracker::utilization(Cycles now) const
{
    if (now <= start_)
        return 0.0;
    return static_cast<double>(busyCycles(now)) /
           static_cast<double>(now - start_);
}

} // namespace hh::stats

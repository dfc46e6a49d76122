#include "sim/simulator.h"

#include "sim/log.h"
#include "sim/prof.h"
#include "snapshot/archive.h"

namespace hh::sim {

EventId
Simulator::schedule(Cycles delay, Callback cb)
{
    return queue_.schedule(now_ + delay, std::move(cb));
}

EventId
Simulator::schedule(Cycles delay, const hh::snap::SnapTag &tag,
                    Callback cb)
{
    return queue_.schedule(now_ + delay, tag, std::move(cb));
}

EventId
Simulator::scheduleAt(Cycles when, Callback cb)
{
    if (when < now_)
        panic("Simulator::scheduleAt into the past (when=", when,
              " now=", now_, ")");
    return queue_.schedule(when, std::move(cb));
}

EventId
Simulator::scheduleAt(Cycles when, const hh::snap::SnapTag &tag,
                      Callback cb)
{
    if (when < now_)
        panic("Simulator::scheduleAt into the past (when=", when,
              " now=", now_, ")");
    return queue_.schedule(when, tag, std::move(cb));
}

void
Simulator::serialize(hh::snap::Archive &ar,
                     const EventQueue::RearmFn &rearm)
{
    ar.io(now_);
    ar.io(executed_);
    ar.io(since_audit_);
    queue_.serialize(ar, rearm);
}

bool
Simulator::cancel(EventId id)
{
    return queue_.cancel(id);
}

std::uint64_t
Simulator::run(Cycles horizon)
{
    HH_PROF_SCOPE("sim.run");
    std::uint64_t n = 0;
    while (!stop_requested_ && !queue_.empty() &&
           queue_.nextTime() <= horizon) {
        step();
        ++n;
    }
    stop_requested_ = false;
    return n;
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    Cycles when = 0;
    auto cb = queue_.pop(when);
    now_ = when;
    ++executed_;
    cb();
    if (audit_every_ && ++since_audit_ >= audit_every_) {
        since_audit_ = 0;
        audit_hook_(now_);
    }
    return true;
}

} // namespace hh::sim

/**
 * @file
 * One self-rescheduling periodic event with a checkpointable
 * lifecycle.
 *
 * Every epoch-driven service of a server (metric sampler, fault
 * injector, telemetry, harvest-policy and cache-lease ticks) is a
 * chain of tagged events: fire, do the epoch's work, schedule the next
 * tick. PeriodicTask owns that chain. The owner supplies `fire`, which
 * does the work and returns the delay to the next tick; 0 ends the
 * chain.
 *
 * The task holds only the pending event id, so running() means "a
 * tick is pending". Outside an executing event that is exactly the
 * owner's notion of running. Inside its own fire() the task is not
 * running: a stop() there is a no-op and fire()'s return value alone
 * decides whether the chain goes on.
 *
 * Snapshot contract: the pending event itself rides the event queue
 * under the task's SnapTag kind. The owner's re-arm dispatcher maps
 * that kind to rearm(), and serialize() restores the id so a later
 * stop() cancels the restored event. Do not start() after a load.
 */

#ifndef HH_SIM_PERIODIC_TASK_H
#define HH_SIM_PERIODIC_TASK_H

#include <functional>
#include <string>
#include <utility>

#include "sim/log.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "snapshot/archive.h"
#include "snapshot/tag.h"

namespace hh::sim {

class PeriodicTask
{
  public:
    /** One tick's work; returns the delay to the next tick, 0 to end. */
    using Fire = std::function<Cycles()>;

    PeriodicTask(Simulator &sim, hh::snap::SnapTag::Kind kind, Fire fire)
        : sim_(sim), kind_(kind), fire_(std::move(fire))
    {}

    // Pending events capture `this`.
    PeriodicTask(const PeriodicTask &) = delete;
    PeriodicTask &operator=(const PeriodicTask &) = delete;

    /**
     * Schedule the first tick @p firstDelay cycles from now; no-op
     * while running. A 0-cycle delay panics: a tick re-armed at the
     * same instant forever would never let simulated time advance.
     */
    void
    start(Cycles firstDelay)
    {
        if (!running())
            schedule(firstDelay);
    }

    /**
     * Cancel the pending tick.
     *
     * @return Whether a tick was pending, so the owner can record its
     *         final partial row or epoch exactly once.
     */
    bool
    stop()
    {
        if (!running())
            return false;
        sim_.cancel(pending_);
        pending_ = kInvalidEventId;
        return true;
    }

    bool running() const { return pending_ != kInvalidEventId; }

    hh::snap::SnapTag::Kind kind() const { return kind_; }

    /** Callback for a restored event of this task's kind. */
    Simulator::Callback
    rearm()
    {
        return [this] { tick(); };
    }

    /**
     * Save/restore the running byte, then the pending id. On load the
     * archive fails if the two disagree.
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        bool was_running = running();
        ar.io(was_running);
        serializePending(ar);
        if (ar.loading() && ar.ok() && was_running != running())
            ar.fail("checkpoint periodic task (tag kind " +
                    std::to_string(kind_) +
                    ") has a running byte that contradicts its "
                    "pending event id");
    }

    /** The pending id alone, for layouts without a running byte. */
    void serializePending(hh::snap::Archive &ar) { ar.io(pending_); }

  private:
    void
    tick()
    {
        pending_ = kInvalidEventId;
        if (const Cycles next = fire_())
            schedule(next);
    }

    void
    schedule(Cycles delay)
    {
        if (delay == 0)
            panic("PeriodicTask: 0-cycle period for tag kind ", kind_);
        pending_ = sim_.schedule(delay, hh::snap::tag(kind_),
                                 [this] { tick(); });
    }

    Simulator &sim_;
    hh::snap::SnapTag::Kind kind_;
    Fire fire_;
    EventId pending_ = kInvalidEventId;
};

} // namespace hh::sim

#endif // HH_SIM_PERIODIC_TASK_H

/**
 * @file
 * The simulation driver: owns the clock and the event queue.
 *
 * Components schedule callbacks relative to now(); run() executes
 * events in timestamp order until a horizon or until the queue
 * drains. The simulator is strictly single-threaded; determinism
 * comes from the FIFO tie-breaking in EventQueue plus per-component
 * RNG streams.
 */

#ifndef HH_SIM_SIMULATOR_H
#define HH_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace hh::sim {

/**
 * Discrete-event simulation driver.
 */
class Simulator
{
  public:
    using Callback = EventQueue::Callback;

    /** Current simulated time in cycles. */
    Cycles now() const { return now_; }

    /**
     * Schedule a callback @p delay cycles in the future.
     *
     * @return An id usable with cancel().
     */
    EventId schedule(Cycles delay, Callback cb);

    /** Schedule a tagged (checkpointable) callback; see EventQueue. */
    EventId schedule(Cycles delay, const hh::snap::SnapTag &tag,
                     Callback cb);

    /** Schedule a callback at an absolute time (>= now()). */
    EventId scheduleAt(Cycles when, Callback cb);

    /** Tagged (checkpointable) absolute-time variant. */
    EventId scheduleAt(Cycles when, const hh::snap::SnapTag &tag,
                       Callback cb);

    /** Cancel a pending event; returns false if it already ran. */
    bool cancel(EventId id);

    /**
     * Run until the queue drains or simulated time would exceed
     * @p horizon. Events stamped exactly at the horizon still run.
     *
     * @return Number of events executed.
     */
    std::uint64_t run(Cycles horizon = ~Cycles{0});

    /**
     * Execute the single earliest event.
     *
     * @return false if the queue was empty.
     */
    bool step();

    /** True when no events remain. */
    bool idle() const { return queue_.empty(); }

    /**
     * Timestamp of the earliest pending event (conservative-window
     * coordination across simulators). @pre !idle().
     */
    Cycles nextEventTime() const { return queue_.nextTime(); }

    /** Number of pending events. */
    std::size_t pendingEvents() const { return queue_.size(); }

    /** Total events executed since construction. */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Install a hook invoked after every @p everyEvents executed
     * events (invariant auditing). Follows the tracing gating
     * pattern: when no hook is installed the per-event cost is a
     * single untaken branch. Pass a null hook or 0 to uninstall.
     *
     * The hook runs between events (never inside a callback), so it
     * may inspect any component state but must not mutate it.
     */
    void setAuditHook(std::function<void(Cycles)> hook,
                      std::uint64_t everyEvents)
    {
        audit_hook_ = std::move(hook);
        audit_every_ = audit_hook_ ? everyEvents : 0;
        since_audit_ = 0;
    }

    /** Pops that went backwards in time (bug if != 0). */
    std::uint64_t monotonicViolations() const
    {
        return queue_.monotonicViolations();
    }

    /**
     * Make run() return before executing another event (e.g. the
     * audit hook aborting on an invariant violation). Cleared when
     * run() returns, so a later run() proceeds normally.
     */
    void requestStop() { stop_requested_ = true; }

    /**
     * Save or restore the clock, event counters and the queue. The
     * audit hook is *not* serialized — the owner re-installs it
     * before restoring (setAuditHook resets the audit phase, so it
     * must run first; serialize then overwrites `since_audit_`).
     */
    void serialize(hh::snap::Archive &ar,
                   const EventQueue::RearmFn &rearm);

  private:
    EventQueue queue_;
    Cycles now_ = 0;
    std::uint64_t executed_ = 0;
    /** Null unless auditing: step() branches on audit_every_. */
    std::function<void(Cycles)> audit_hook_;
    std::uint64_t audit_every_ = 0;
    std::uint64_t since_audit_ = 0;
    bool stop_requested_ = false;
};

} // namespace hh::sim

#endif // HH_SIM_SIMULATOR_H

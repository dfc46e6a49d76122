/**
 * @file
 * Deterministic fault-injection harness.
 *
 * A seeded perturbation layer that exercises the server's public
 * scheduling/harvesting surface with adversarial interleavings:
 * lend/reclaim storms, reclaim-during-flush, delayed completions,
 * bursty arrivals and chunk-exhaustion pressure. The injector owns
 * its own Rng stream, so a given (seed, config) pair replays the
 * exact same perturbation schedule — a violation found by the fuzz
 * driver is reproducible from its seed alone.
 *
 * The injector is a PeriodicTask (kFaultTick): each tick fires a few
 * randomly chosen registered actions, then returns an exponentially
 * distributed delay to the next one. The owner must stop() it when
 * the workload drains, or the tick chain would keep the event queue
 * non-empty to the horizon; maxActions additionally bounds runaway
 * configurations (the tick returns 0 and the chain ends).
 */

#ifndef HH_CHECK_FAULT_INJECT_H
#define HH_CHECK_FAULT_INJECT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/periodic_task.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace hh::stats {
class MetricRegistry;
}

namespace hh::check {

/**
 * Fault-injection parameters (part of SystemConfig).
 */
struct FaultConfig
{
    /** Master switch; off means no injector is constructed. */
    bool enabled = false;

    /** Mean delay between injection ticks (exponential). */
    hh::sim::Cycles meanPeriod = hh::sim::usToCycles(200);

    /** First tick time (lets the workload ramp up first). */
    hh::sim::Cycles startAt = hh::sim::usToCycles(50);

    /** Random actions fired per tick. */
    unsigned actionsPerTick = 2;

    /** Hard bound on total actions fired (runaway guard). */
    std::uint64_t maxActions = 100000;

    /**
     * Test-only regression switch: resurrect the seed's lend/reclaim
     * race (the PR-1 bug) by scheduling the lend-completion event
     * untracked, so a reclaim arriving mid-transition cannot cancel
     * it. Used to prove the auditor catches the orphaned-request
     * corruption at the offending sim-time instead of hanging to the
     * 600 s horizon.
     */
    bool resurrectLendRace = false;
};

/**
 * The injector: named actions fired on a seeded random schedule.
 */
class FaultInjector
{
  public:
    /**
     * One perturbation. Receives the injector's Rng so actions can
     * make their own random choices (victim core, burst size, ...)
     * without needing a stream of their own.
     */
    using Action = std::function<void(hh::sim::Rng &)>;

    /**
     * @param sim  Simulator the tick chain is scheduled on.
     * @param seed Experiment seed; the injector derives its own
     *             stream so it never perturbs other components' RNGs.
     * @param cfg  Schedule parameters.
     */
    FaultInjector(hh::sim::Simulator &sim, std::uint64_t seed,
                  const FaultConfig &cfg);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Register a named action; call before start(). */
    void addAction(std::string name, Action fn);

    /** Schedule the first tick (no-op without actions). */
    void start();

    /** Cancel the tick chain (idempotent). */
    void stop() { task_.stop(); }

    /** Total actions fired so far. */
    std::uint64_t actionsFired() const { return fired_; }

    /** Ticks executed so far. */
    std::uint64_t ticks() const { return ticks_; }

    /** Fired count of one action; 0 for unknown names. */
    std::uint64_t actionCount(const std::string &name) const;

    /**
     * Register injector counters ("<prefix>.ticks",
     * "<prefix>.actions", "<prefix>.action.<name>").
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix);

    /** The tick chain; the owner's re-arm dispatcher calls rearm(). */
    hh::sim::PeriodicTask &task() { return task_; }

    /**
     * Save/restore the schedule state: Rng stream position, tick and
     * fired counters (total plus per action, in registration order —
     * the restoring owner must have registered the same action list)
     * and the pending-event id. Do not call start() after loading;
     * the tick chain is restored through the event queue.
     */
    void serialize(hh::snap::Archive &ar);

  private:
    /** Fire this tick's actions; the delay to the next tick or 0. */
    hh::sim::Cycles tick();

    struct Named
    {
        std::string name;
        Action fn;
        std::uint64_t fired = 0;
    };

    FaultConfig cfg_;
    hh::sim::Rng rng_;
    std::vector<Named> actions_;
    std::uint64_t fired_ = 0;
    std::uint64_t ticks_ = 0;
    hh::sim::PeriodicTask task_;
};

} // namespace hh::check

#endif // HH_CHECK_FAULT_INJECT_H

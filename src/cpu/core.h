/**
 * @file
 * Physical core model.
 *
 * A core owns its private cache/TLB hierarchy and executes work
 * items (Primary-VM request segments or Harvest-VM batch slices)
 * whose durations are computed by replaying the workload's memory
 * accesses through the hierarchy. Scheduling decisions live in the
 * server layer; the core records what it is doing and for which VM,
 * and integrates busy time for the utilization statistics (§6.7).
 */

#ifndef HH_CPU_CORE_H
#define HH_CPU_CORE_H

#include <cstdint>
#include <memory>

#include "cache/hierarchy.h"
#include "sim/time.h"
#include "snapshot/archive.h"
#include "stats/registry.h"
#include "stats/utilization.h"

namespace hh::cpu {

/** What a core is currently doing. */
enum class CoreState
{
    Idle,          //!< No work (and not lent out).
    RunningPrimary,//!< Executing its Primary VM's request.
    RunningHarvest,//!< On loan (or natively) running Harvest work.
};

/**
 * One physical core.
 */
class Core
{
  public:
    /**
     * @param id   Core id within the server (0..35).
     * @param cfg  Hierarchy configuration.
     * @param l3   The owning VM's L3 partition (re-bound on loans).
     * @param dram Server DRAM.
     * @param arena Host memory for the hierarchy's columns, or
     *             nullptr (see CoreHierarchy).
     */
    Core(unsigned id, const hh::cache::HierarchyConfig &cfg,
         hh::cache::SetAssocArray *l3, hh::mem::Dram *dram,
         hh::cache::ColumnArena *arena = nullptr);

    unsigned id() const { return id_; }

    CoreState state() const { return state_; }
    bool idle() const { return state_ == CoreState::Idle; }
    bool onLoan() const { return state_ == CoreState::RunningHarvest; }

    /** VM whose (sub)queue this core is bound to (MyManager). */
    std::uint32_t boundVm() const { return bound_vm_; }
    void setBoundVm(std::uint32_t vm) { bound_vm_ = vm; }

    /**
     * Transition the core's activity state, updating the busy-time
     * integral at time @p now.
     */
    void setState(hh::sim::Cycles now, CoreState s);

    /** The private hierarchy. */
    hh::cache::CoreHierarchy &hierarchy() { return *hier_; }

    /** Busy-time integral for utilization statistics. */
    const hh::stats::UtilizationTracker &busy() const { return busy_; }
    hh::stats::UtilizationTracker &busy() { return busy_; }

    /** Record the id of the request now executing (0 when none). */
    void setCurrentRequest(std::uint64_t id) { current_request_ = id; }

    /**
     * Register the hierarchy counters and the busy-time integral
     * under "<prefix>.l1d.hits", "<prefix>.busy.util", ...
     *
     * @param now Simulated-time source for the utilization gauge.
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix,
                         hh::stats::MetricRegistry::NowFn now);

    /**
     * Save/restore activity state, binding, current request, the
     * busy-time integral and the whole private hierarchy. The L3
     * pointer inside the hierarchy is re-bound by the server (loan
     * state decides which VM's partition the core sees).
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(state_);
        ar.io(bound_vm_);
        ar.io(current_request_);
        ar.io(busy_);
        ar.io(*hier_);
    }

  private:
    unsigned id_;
    std::unique_ptr<hh::cache::CoreHierarchy> hier_;
    CoreState state_ = CoreState::Idle;
    std::uint32_t bound_vm_ = 0;
    std::uint64_t current_request_ = 0;
    hh::stats::UtilizationTracker busy_;
};

} // namespace hh::cpu

#endif // HH_CPU_CORE_H

/**
 * @file
 * Software hypervisor cost model.
 *
 * Section 3 quantifies the costs this module encodes:
 *  - Moving a core across VMs under KVM takes ~5 ms: half spent
 *    detaching/attaching via cgroup hypercalls, half loading the new
 *    VM context.
 *  - SmartHarvest's optimized path reduces detach/attach to 100s of
 *    microseconds.
 *  - Flushing + invalidating a core's caches with wbinvd takes
 *    300-500 us (we add a fence so external caches complete too).
 *  - Software request dispatch pays queue polling, memory-mapped
 *    queue accesses with lock contention, and a process context
 *    switch.
 */

#ifndef HH_VM_HYPERVISOR_H
#define HH_VM_HYPERVISOR_H

#include <string>

#include "sim/rng.h"
#include "sim/time.h"
#include "snapshot/archive.h"
#include "stats/counter.h"

namespace hh::stats {
class MetricRegistry;
}

namespace hh::vm {

/** Which software reassignment implementation to charge. */
enum class ReassignImpl
{
    Kvm,       //!< Vanilla KVM cgroup detach/attach (~5 ms total).
    Optimized, //!< SmartHarvest-style optimized path (100s of us).
};

/**
 * Cost parameters for software scheduling and harvesting.
 */
struct SoftwareCosts
{
    /** KVM detach+attach hypercalls (both calls together). */
    hh::sim::Cycles kvmDetachAttach = hh::sim::msToCycles(2.5);
    /** KVM cross-VM context load. */
    hh::sim::Cycles kvmVmContextLoad = hh::sim::msToCycles(2.5);

    /** Optimized detach+attach (SmartHarvest). */
    hh::sim::Cycles optDetachAttach = hh::sim::usToCycles(150);
    /** Optimized cross-VM context load. */
    hh::sim::Cycles optVmContextLoad = hh::sim::usToCycles(100);

    /** wbinvd flush+invalidate latency range (uniform). */
    hh::sim::Cycles wbinvdMin = hh::sim::usToCycles(300);
    hh::sim::Cycles wbinvdMax = hh::sim::usToCycles(500);
    /** Fence waiting for external caches after wbinvd. */
    hh::sim::Cycles wbinvdFence = hh::sim::usToCycles(50);

    /** Software process (request-level) context switch: kernel
     *  scheduler pass, register/FPU state, vCPU bookkeeping. */
    hh::sim::Cycles processCtxSwitch = hh::sim::usToCycles(15);

    /** Mean interval between queue polls by an idle core. Idle VM
     *  vCPUs are typically halted; discovering work costs an IPI
     *  wake-up plus a scheduler pass, tens of microseconds. */
    hh::sim::Cycles pollInterval = hh::sim::usToCycles(50);

    /** One memory-mapped queue operation (cache-line ping-pong
     *  through the LLC plus DDIO interference). */
    hh::sim::Cycles queueOp = 3000;
    /** Extra cost per queue op when cores contend on the lock. */
    hh::sim::Cycles lockContention = 9000;
};

/**
 * Charges software costs; stateless except for the RNG used for the
 * wbinvd latency range.
 */
class Hypervisor
{
  public:
    explicit Hypervisor(const SoftwareCosts &costs, std::uint64_t seed);

    /** Total hypervisor cost to move a core between VMs. */
    hh::sim::Cycles reassignCost(ReassignImpl impl) const;

    /** Detach/attach component only. */
    hh::sim::Cycles detachAttachCost(ReassignImpl impl) const;

    /** VM context-load component only. */
    hh::sim::Cycles vmContextLoadCost(ReassignImpl impl) const;

    /** One wbinvd + fence full flush (randomized in range). */
    hh::sim::Cycles wbinvdCost();

    /** Dispatch-side polling delay for an idle software core. */
    hh::sim::Cycles pollDelay();

    /**
     * Acquire the hypervisor's global reassignment lock (§4.1.1:
     * a conventional detach/attach acquires a lock, serializing
     * concurrent core moves; HardHarvest's decentralized QMs avoid
     * this). The lock is held for @p hold cycles.
     *
     * @param now  Current simulated time.
     * @param hold How long the caller holds the lock.
     * @return Cycles the caller waits before obtaining the lock.
     */
    hh::sim::Cycles acquireReassignLock(hh::sim::Cycles now,
                                        hh::sim::Cycles hold);

    const SoftwareCosts &costs() const { return costs_; }

    /** @name Statistics @{ */
    /**
     * Register "<prefix>.wbinvd", "<prefix>.lock.acquisitions" and
     * "<prefix>.lock.wait_cycles".
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix);
    /** @} */

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(rng_);
        ar.io(lock_free_at_);
        ar.io(wbinvds_);
        ar.io(lock_acquisitions_);
        ar.io(lock_wait_cycles_);
    }

  private:
    SoftwareCosts costs_;
    hh::sim::Rng rng_;
    hh::sim::Cycles lock_free_at_ = 0;
    hh::stats::Counter wbinvds_{"hv.wbinvd"};
    hh::stats::Counter lock_acquisitions_{"hv.lock.acquisitions"};
    hh::stats::Counter lock_wait_cycles_{"hv.lock.wait_cycles"};
};

} // namespace hh::vm

#endif // HH_VM_HYPERVISOR_H

/**
 * @file
 * The HardHarvest hardware controller (§4.1.2, Fig 9).
 *
 * A centralized per-processor module reached over the dedicated
 * control tree. It owns the physical Request Queue and up to 16
 * Queue Manager / VM State Register Set pairs. VM registration binds
 * a QM and carves the RQ into per-VM subqueues proportionally to
 * each VM's core count; arrivals and departures trigger chunk
 * donation between subqueue tails (§4.1.2). Cores interact only with
 * QMs (never with subqueues directly) through user-level dequeue /
 * complete / blocked instructions whose latency is the control-tree
 * round trip plus the SRAM access.
 */

#ifndef HH_CORE_CONTROLLER_H
#define HH_CORE_CONTROLLER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/queue_manager.h"
#include "core/rq.h"
#include "noc/control_tree.h"
#include "sim/time.h"

namespace hh::core {

/**
 * Controller construction parameters (Table 1 defaults).
 */
struct ControllerConfig
{
    unsigned rqChunks = 32;
    unsigned entriesPerChunk = 64;
    unsigned maxQms = 16;

    /** Worst-case harvest-region flush+invalidate bound (cycles). */
    hh::sim::Cycles flushBound = 1000;

    /** Control-tree parameters (§4.1.8). */
    unsigned treeFanout = 4;
    hh::sim::Cycles treeHopLatency = 2;

    /** One access to the dedicated RQ SRAM. */
    hh::sim::Cycles sramAccess = 4;
};

/**
 * The controller.
 */
class HardHarvestController
{
  public:
    /**
     * @param cfg      Configuration.
     * @param numCores Cores attached to the control tree.
     */
    HardHarvestController(const ControllerConfig &cfg, unsigned numCores);

    /** @name VM lifecycle @{ */

    /**
     * Register a VM: allocates a QM and gives the VM a share of the
     * RQ proportional to @p weight (its core count), donating chunks
     * from currently-active VMs if needed.
     */
    QueueManager &registerVm(std::uint32_t vmId, bool primary,
                             unsigned weight);

    /** Remove a VM; its chunks go to the remaining subqueues. */
    void removeVm(std::uint32_t vmId);

    /** QM in charge of a VM, or nullptr. */
    QueueManager *qmFor(std::uint32_t vmId);
    const QueueManager *qmFor(std::uint32_t vmId) const;

    unsigned numVms() const
    {
        return static_cast<unsigned>(qms_.size());
    }

    /**
     * Visit every registered QM in registration order (invariant
     * auditing / tests). @p fn receives a const QueueManager &.
     */
    template <typename Fn>
    void forEachQm(Fn &&fn) const
    {
        for (const auto &slot : qms_)
            fn(static_cast<const QueueManager &>(*slot.qm));
    }
    /** @} */

    /** @name Request path (§4.1.3) @{ */

    /**
     * Enqueue a ready request for @p vm.
     *
     * The request is always accepted (SubQueue::enqueue contract):
     * `false` means deferred to the in-memory overflow subqueue, not
     * rejected, and the entry drains back into hardware on its own.
     * Callers must not retry on `false` — that would duplicate the
     * request.
     *
     * @return true if it landed in the hardware subqueue, false if
     *         it spilled to the in-memory overflow subqueue.
     */
    bool enqueue(std::uint32_t vm, std::uint64_t payload);

    /** Dequeue the oldest ready request of @p vm (FIFO). */
    std::optional<std::uint64_t> dequeue(std::uint32_t vm);

    void markBlocked(std::uint32_t vm, std::uint64_t payload);
    void markReady(std::uint32_t vm, std::uint64_t payload);
    void complete(std::uint32_t vm, std::uint64_t payload);
    void preempt(std::uint32_t vm, std::uint64_t payload);
    /** @} */

    /** @name Latency model @{ */

    /** Core-issued queue instruction (tree round trip + SRAM). */
    hh::sim::Cycles queueOpLatency() const;

    /** Controller-initiated core notification/interrupt (one way). */
    hh::sim::Cycles notifyLatency() const;

    /** Side-channel-safe harvest-region flush bound. */
    hh::sim::Cycles flushBound() const { return cfg_.flushBound; }

    /** @} */

    RequestQueue &rq() { return rq_; }
    const ControllerConfig &config() const { return cfg_; }

    /** Total weight of registered VMs. */
    unsigned totalWeight() const;

    /** @name Invariant audits (nullopt = holds, else the report) @{ */
    /**
     * RQ chunk accounting: every allocated chunk is mapped by exactly
     * one subqueue and vice versa; no payload sits in two containers
     * of a subqueue; the overflow queue only backs a full subqueue
     * (the FIFO guarantee behind SubQueue::enqueue's contract).
     */
    std::optional<std::string> auditRq() const;

    /**
     * Per-VM HarvestMask registers: masks fit their structures and,
     * when @p partitioning is on, actually partition them.
     */
    std::optional<std::string> auditHarvestMasks(bool partitioning) const;
    /** @} */

    /**
     * Register controller-level gauges ("<prefix>.free_chunks",
     * "<prefix>.vms"). Per-VM subqueue metrics are registered by the
     * owner of each QM (registration order is VM-lifetime dependent).
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix);

    /**
     * Save/restore the full controller: RQ allocation state, QM
     * identity slots (id / vm / primary / weight, in registration
     * order, including ghost-VM managers) and every QM's internals.
     * On load any existing QMs are torn down first and the saved set
     * is rebuilt verbatim, bypassing rebalanceChunks — the restored
     * RQ-Maps already name their chunks.
     */
    void serialize(hh::snap::Archive &ar);

  private:
    /**
     * Re-proportion RQ chunks to subqueues according to VM weights:
     * over-provisioned subqueues shed tail chunks, under-provisioned
     * ones take them.
     */
    void rebalanceChunks();

    struct Slot
    {
        std::unique_ptr<QueueManager> qm;
        unsigned weight = 0;
    };

    ControllerConfig cfg_;
    RequestQueue rq_;
    hh::noc::ControlTree tree_;
    std::vector<Slot> qms_;
    unsigned next_qm_id_ = 0;
};

} // namespace hh::core

#endif // HH_CORE_CONTROLLER_H

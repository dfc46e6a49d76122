/**
 * @file
 * Per-epoch, per-VM observation rows for the harvest telemetry plane.
 *
 * The existing MetricRegistry exposes flat *cumulative* counters; a
 * harvest policy (and the fleet-level TelemetryHub) instead wants a
 * structured per-epoch view: "over the last epoch, VM 3 ran its cores
 * at 82% utilization with 4.1 misses per kilo-access while 2 of its
 * cores were on loan". The ObservationView materializes exactly that,
 * once per telemetry epoch, from cumulative counter snapshots the
 * owning server feeds it — it performs the cumulative→delta
 * conversion itself so every tap stays a plain monotonic counter.
 *
 * The view is read-only with respect to simulation state, allocates
 * only on its own rows, and serializes under the snapshot archive so
 * checkpointed runs resume with byte-identical telemetry.
 *
 * The hysteresis harvest policy (cluster/harvest_policy.h) consumes
 * the same rows through a view of its own (see docs/POLICIES.md).
 */

#ifndef HH_STATS_OBSERVATION_VIEW_H
#define HH_STATS_OBSERVATION_VIEW_H

#include <cstdint>
#include <vector>

#include "snapshot/archive.h"

namespace hh::stats {

/**
 * Cumulative per-VM counters sampled by the owner at one instant.
 * "Cumulative" fields are monotonic since t=0; "instantaneous" fields
 * are point-in-time readings passed through to the feature row.
 */
struct VmCounters
{
    std::uint64_t busyCycles = 0;     //!< cumulative, over bound cores
    std::uint64_t accesses = 0;       //!< cumulative, private hierarchy
    std::uint64_t misses = 0;         //!< cumulative, last private level
    std::uint64_t validLines = 0;     //!< instantaneous, private arrays
    std::uint64_t lineCapacity = 0;   //!< instantaneous
    std::uint64_t rqReady = 0;        //!< instantaneous
    std::uint64_t rqOccupancy = 0;    //!< instantaneous
    std::uint64_t rqOverflow = 0;     //!< instantaneous
    std::uint32_t coresBound = 0;     //!< instantaneous
    std::uint32_t coresLent = 0;      //!< instantaneous
    std::uint64_t pendingReclaims = 0; //!< instantaneous
    std::uint64_t lentCycles = 0;     //!< cumulative core-cycles on loan
    std::uint64_t reclaims = 0;       //!< cumulative reclaim count
    std::uint64_t reclaimCycles = 0;  //!< cumulative reclaim latency sum
    /** Instantaneous: L3 ways this VM currently leases out. */
    std::uint32_t leasedWays = 0;
    /** Instantaneous: valid lines resident in those leased ways. */
    std::uint64_t leasedOccupancy = 0;

    void serialize(hh::snap::Archive &ar);
};

/** Cumulative server-wide counters sampled at one instant. */
struct ServerCounters
{
    std::uint64_t t = 0; //!< sample time (cycles)
    std::vector<VmCounters> vms;
    std::uint64_t batchLoaned = 0; //!< cumulative, on loaned cores
    std::uint64_t batchNative = 0; //!< cumulative, on native harvest cores
    /** Cumulative reclaim-latency log-histogram bucket counts. */
    std::vector<std::uint64_t> reclaimHist;
    /** Cumulative request-latency (us) log-histogram bucket counts. */
    std::vector<std::uint64_t> latencyHist;
    /** @name Cache-lease taps (cumulative; src/lease/) @{ */
    std::uint64_t leaseGrants = 0;
    std::uint64_t leaseRecalls = 0;
    std::uint64_t leaseExpiries = 0;
    std::uint64_t leaseFlushedLines = 0;
    std::uint64_t leaseWayCycles = 0;
    /** @} */

    /** Core-cycles on loan, summed over the VMs' `lentCycles`. */
    std::uint64_t
    harvestedCycles() const
    {
        std::uint64_t n = 0;
        for (const VmCounters &vm : vms)
            n += vm.lentCycles;
        return n;
    }

    /** Reclaims so far, the sum of `reclaimHist`. */
    std::uint64_t
    reclaims() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t c : reclaimHist)
            n += c;
        return n;
    }

    void serialize(hh::snap::Archive &ar);
};

/**
 * One per-VM feature row of one epoch — the harvest-policy input
 * signature. Rates are epoch deltas; states are end-of-epoch values.
 */
struct VmFeatures
{
    std::uint32_t vm = 0;
    /** Mean utilization of bound cores over the epoch, in [0, 1]. */
    double coreUtil = 0;
    /**
     * Misses per kilo-access over the epoch (the repo's MPKI proxy:
     * the model replays memory accesses, not instructions).
     */
    double mpki = 0;
    /** Valid-line fraction of the private cache arrays, in [0, 1]. */
    double cacheOccupancy = 0;
    std::uint64_t rqReady = 0;
    std::uint64_t rqOccupancy = 0;
    std::uint64_t rqOverflow = 0;
    std::uint32_t coresBound = 0;
    std::uint32_t coresLent = 0;
    std::uint64_t pendingReclaims = 0;
    /** Core-cycles this VM's cores spent on loan during the epoch. */
    std::uint64_t lentCycles = 0;
    /** Reclaims initiated during the epoch. */
    std::uint64_t reclaims = 0;
    /** Sum of those reclaims' latencies (cycles). */
    std::uint64_t reclaimCycles = 0;
    /** End-of-epoch L3 ways this VM leases out (cache harvest). */
    std::uint32_t leasedWays = 0;
    /** Borrower-line change in the leased ways over the epoch. */
    std::int64_t leaseOccupancyDelta = 0;

    void serialize(hh::snap::Archive &ar);
};

/** One materialized epoch: per-VM features + server-wide deltas. */
struct ObservationRow
{
    std::uint64_t epoch = 0; //!< 1-based epoch index
    std::uint64_t t = 0;     //!< materialization time (cycles)
    std::vector<VmFeatures> vms;
    std::uint64_t batchLoanedDelta = 0;
    std::uint64_t batchNativeDelta = 0;
    /** Core-cycles on loan across all VMs during the epoch. */
    std::uint64_t harvestedCyclesDelta = 0;
    std::uint64_t reclaimsDelta = 0;
    /** Per-epoch reclaim-latency log-histogram bucket deltas. */
    std::vector<std::uint64_t> reclaimHistDelta;
    /** Per-epoch request-latency (us) log-histogram bucket deltas. */
    std::vector<std::uint64_t> latencyHistDelta;
    /** @name Cache-lease epoch deltas (src/lease/) @{ */
    std::uint64_t leaseGrantsDelta = 0;
    std::uint64_t leaseRecallsDelta = 0;
    std::uint64_t leaseExpiriesDelta = 0;
    std::uint64_t leaseFlushedDelta = 0;
    /** Leased-way-cycles lent out during the epoch. */
    std::uint64_t leaseWayCyclesDelta = 0;
    /** @} */

    void serialize(hh::snap::Archive &ar);
};

/**
 * Materializes ObservationRows from cumulative counter snapshots.
 * The first record() call diffs against an implicit all-zero snapshot
 * at t=0, so the first epoch covers [0, t).
 */
class ObservationView
{
  public:
    /**
     * Materialize one epoch row from cumulative counters at
     * @p cum.t. A call with cum.t equal to the previous record time
     * is ignored (guards the stop-at-tick-time duplicate).
     */
    void record(const ServerCounters &cum);

    const std::vector<ObservationRow> &rows() const { return rows_; }
    std::vector<ObservationRow> takeRows();
    std::uint64_t epochs() const { return epoch_; }

    /**
     * Save/restore rows plus the previous cumulative snapshot, so a
     * resumed run's next epoch diffs against the same baseline and
     * telemetry stays byte-identical under the checkpoint contract.
     */
    void serialize(hh::snap::Archive &ar);

  private:
    /** Set by the first record(); part of the snapshot bytes. */
    bool havePrev_ = false;
    /** Last recorded counters; all-zero until the first record(). */
    ServerCounters prev_;
    std::uint64_t epoch_ = 0;
    std::vector<ObservationRow> rows_;
};

} // namespace hh::stats

#endif // HH_STATS_OBSERVATION_VIEW_H

/**
 * @file
 * Configurations of the five evaluated architectures (§5) plus the
 * ablation knobs of Figures 12, 13 and 15 and the motivation-study
 * variants of Figures 4 and 5.
 */

#ifndef HH_CLUSTER_SYSTEM_CONFIG_H
#define HH_CLUSTER_SYSTEM_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "cache/config.h"
#include "check/fault_inject.h"
#include "vm/hypervisor.h"
#include "workload/loadgen.h"

namespace hh::cluster {

/** The five evaluated systems. */
enum class SystemKind
{
    NoHarvest,
    HarvestTerm,
    HarvestBlock,
    HardHarvestTerm,
    HardHarvestBlock,
};

/** Printable system name matching the paper's figures. */
const char *systemName(SystemKind kind);

/**
 * Full configuration of one simulated server/system.
 */
struct SystemConfig
{
    SystemKind kind = SystemKind::HardHarvestBlock;

    /** @name Harvesting behaviour @{ */
    bool harvesting = true;      //!< Lend idle Primary cores at all.
    bool harvestOnBlock = true;  //!< Also lend cores blocked on I/O.

    /**
     * Future-work extension (§4.1.5): adaptively fall back from
     * harvest-on-block to harvest-on-termination for VMs whose
     * requests spend only a very short time blocked on I/O.
     */
    bool adaptiveHarvest = false;
    /** Minimum EWMA blocked time for block-harvesting to pay off. */
    hh::sim::Cycles adaptiveBlockThreshold = hh::sim::usToCycles(60);

    /**
     * Future-work extension (§4.1.5): keep a buffer of idle cores
     * per Primary VM that hardware harvesting never lends, absorbing
     * bursts without even the (cheap) hardware reclaim.
     */
    unsigned hwEmergencyBuffer = 0;
    /** @} */

    /** @name Hardware (HardHarvest) features / ablation flags @{ */
    bool hwSched = true;      //!< QM notification vs software polling.
    bool hwQueue = true;      //!< SRAM RQ vs memory-mapped queues.
    bool hwCtxtSwitch = true; //!< Request Context Memory save/restore.
    bool partitioning = true; //!< Harvest/non-harvest way regions.
    bool efficientFlush = true; //!< 1000-cycle region flush vs wbinvd.
    hh::cache::ReplKind repl = hh::cache::ReplKind::HardHarvest;
    double candidateFraction = 0.75; //!< Eviction candidates M.
    double harvestWayFraction = 0.5; //!< Harvest region size.
    /** @} */

    /** @name Software-scheme parameters @{ */
    hh::vm::ReassignImpl swImpl = hh::vm::ReassignImpl::Optimized;
    bool swFlushOnReassign = true; //!< wbinvd on every core move.
    bool swReassignFree = false;   //!< Fig 5: flush cost only.
    bool harvestVmIdle = false;    //!< Fig 4: Harvest VM runs nothing.
    hh::vm::SoftwareCosts swCosts; //!< Hypervisor cost constants.
    /** @} */

    /** @name Cache scaling (sensitivity studies) @{ */
    double waysFraction = 1.0;  //!< Fig 7 way scaling.
    bool infiniteCaches = false;
    double llcMbPerCore = 2.0;  //!< Fig 18 LLC sweep.
    /** @} */

    /** @name Server shape (Table 1) @{ */
    unsigned cores = 36;
    unsigned primaryVms = 8;
    unsigned coresPerPrimary = 4;
    /** @} */

    /** @name Observability (PR 2) @{ */
    /**
     * Request-span and core-transition tracing. Off by default: the
     * tracer is then never constructed and hot paths pay only a
     * branch on a null pointer.
     */
    bool traceEnabled = false;
    /** Trace ring capacity in events (oldest overwritten beyond). */
    std::size_t traceCapacity = 1u << 17;
    /** Periodic metric time-series sampling into ServerResults. */
    bool metricsEnabled = false;
    /** Sampling cadence in cycles (1 ms at 3 GHz by default). */
    hh::sim::Cycles metricsPeriod = hh::sim::msToCycles(1.0);
    /**
     * Harvest telemetry plane (PR 7): per-epoch ObservationView rows
     * feeding the fleet-level TelemetryHub. Off by default — the view
     * is then never constructed and no epoch tick is scheduled.
     */
    bool telemetryEnabled = false;
    /** Telemetry epoch length in cycles (1 ms at 3 GHz by default). */
    hh::sim::Cycles telemetryPeriod = hh::sim::msToCycles(1.0);
    /** @} */

    /** @name Harvest policy (PR 8) @{ */
    /**
     * Harvest/reclaim policy selector (harvest_policy.h): "static" (the
     * default — freezes the knobs above into one immutable decision
     * set) or "hysteresis".
     */
    std::string policy = "static";
    /** Policy epoch length in cycles (1 ms at 3 GHz by default). */
    hh::sim::Cycles policyPeriod = hh::sim::msToCycles(1.0);
    /** Hysteresis: EWMA smoothing of epoch core utilization. */
    double policyEwmaAlpha = 0.3;
    /** Hysteresis: lend aggressively below this EWMA utilization. */
    double policyLendUtil = 0.35;
    /**
     * Hysteresis: arm the reclaim guard band strictly above this EWMA
     * utilization (1.0, the default, disarms it — see
     * docs/POLICIES.md for the throughput/tail trade).
     */
    double policyHoldUtil = 1.0;
    /** @} */

    /** @name Cache-capacity harvesting (src/lease/) @{ */
    /**
     * Cross-VM cache-way leasing: idle Primary VMs lend private L2
     * ways and a slice of their L3 CAT partition to the batch VM
     * under explicit leases (grant -> use -> recall/expiry ->
     * flush-on-return). Off by default: no CacheLeaseManager is
     * constructed and no lease tick is scheduled, so existing runs
     * are bit-identical to before the subsystem existed.
     */
    bool cacheLendEnabled = false;
    /**
     * Extra L2 harvest-way fraction granted to a lender's cores while
     * its lease is active (on top of harvestWayFraction; the sum is
     * clamped so the primary region keeps at least one way).
     */
    double cacheLendL2WayFraction = 0.25;
    /** L3 partition ways leased to the batch VM (low ways first). */
    unsigned cacheLendL3Ways = 4;
    /** Lease-manager decision cadence in cycles (1 ms at 3 GHz). */
    hh::sim::Cycles cacheLendPeriod = hh::sim::msToCycles(1.0);
    /** Lease term: a grant auto-expires after this many cycles. */
    hh::sim::Cycles cacheLendTerm = hh::sim::msToCycles(4.0);
    /** @} */

    /** @name Invariant auditing / fault injection (PR 3) @{ */
    /**
     * Cross-component invariant auditing. Off by default: no Auditor
     * is constructed and the simulator's audit hook stays null, so
     * hot paths pay only an untaken branch per executed event. The
     * HH_AUDIT=1 environment variable force-enables it for any run.
     */
    bool auditEnabled = false;
    /** Executed events between audit sweeps. */
    std::uint64_t auditPeriod = 4096;
    /** Panic on the first violation instead of recording it. */
    bool auditPanic = false;
    /**
     * Abort the run (Simulator::requestStop) once a sweep reports a
     * violation: the fuzz driver then returns with the reports at
     * the offending sim-time instead of simulating a corrupted
     * server to the 600 s horizon.
     */
    bool auditStopOnViolation = false;
    /** Deterministic fault injection (fuzz tests only). */
    hh::check::FaultConfig faults;
    /** @} */

    /** @name Workload scale @{ */
    /**
     * Memory-access sampling: replay 1/N of each segment's accesses
     * and scale the measured memory stall by N. Keeps hit-rate
     * statistics while cutting simulation cost; 1 disables sampling.
     */
    unsigned accessSampling = 4;
    double loadScale = 1.0;       //!< Multiplies every arrival rate.
    unsigned requestsPerVm = 2000; //!< Arrival budget per Primary VM.
    double warmupFraction = 0.1;  //!< Requests excluded from stats.
    hh::workload::BurstConfig burst;
    std::uint64_t seed = 1;
    /** @} */

    /** @name Service-graph mode (src/svc/) @{ */
    /**
     * Canonical text of the ServiceGraphSpec driving this run, empty
     * in classic single-hop mode. Carried here (rather than in the
     * fleet layer) so the checkpoint configFingerprint covers the
     * graph shape — resuming a graph checkpoint under a different
     * topology must fail up front.
     */
    std::string graphSpec;
    /** @} */
};

/**
 * Build the canonical configuration of one of the five systems.
 */
SystemConfig makeSystem(SystemKind kind);

} // namespace hh::cluster

#endif // HH_CLUSTER_SYSTEM_CONFIG_H

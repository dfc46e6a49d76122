/**
 * @file
 * Full-server simulation: 36 cores, 8 Primary VMs + 1 Harvest VM,
 * NIC, DRAM, LLC partitions, and one of the five evaluated
 * scheduling/harvesting schemes (§5).
 *
 * The server is the composition root: it owns the discrete-event
 * simulator, wires workloads to cores through the scheduling layer
 * selected by the SystemConfig flags, and produces the per-service
 * latency distributions, Harvest-VM throughput, and core-utilization
 * statistics that the paper's figures report.
 */

#ifndef HH_CLUSTER_SERVER_H
#define HH_CLUSTER_SERVER_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/auditor.h"
#include "check/fault_inject.h"
#include "cluster/harvest_policy.h"
#include "cluster/system_config.h"
#include "lease/cache_lease.h"
#include "core/context_memory.h"
#include "core/controller.h"
#include "cpu/core.h"
#include "cpu/request.h"
#include "mem/dram.h"
#include "net/fabric.h"
#include "net/nic.h"
#include "noc/mesh.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"
#include "snapshot/archive.h"
#include "snapshot/tag.h"
#include "stats/histogram.h"
#include "stats/observation_view.h"
#include "stats/percentile.h"
#include "stats/registry.h"
#include "stats/sampler.h"
#include "trace/trace.h"
#include "vm/hypervisor.h"
#include "vm/sw_harvest.h"
#include "vm/vm.h"
#include "workload/batch.h"
#include "workload/loadgen.h"
#include "workload/service.h"

namespace hh::cluster {

/** Per-service results of one run. */
struct ServiceResult
{
    std::string name;
    std::uint64_t count = 0;
    double meanMs = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    /** Mean per-request breakdown in ms (Fig 6). */
    double queueMs = 0;
    double reassignMs = 0;
    double flushMs = 0;
    double execMs = 0;
    double ioMs = 0;
};

/**
 * Per-server harvest-telemetry payload (filled in finishRun). The
 * totals come from always-on taps, so they are populated for every
 * run; the per-epoch `rows` exist only when
 * `SystemConfig::telemetryEnabled` scheduled the epoch tick.
 */
struct ServerTelemetry
{
    bool enabled = false; //!< telemetryEnabled of the producing run.
    /** Per-epoch observation rows (empty unless enabled). */
    std::vector<hh::stats::ObservationRow> rows;
    /** Cumulative counters at the run's end time (`totals.t`). */
    hh::stats::ServerCounters totals;
};

/** Results of one server run. */
struct ServerResults
{
    std::vector<ServiceResult> services;
    double elapsedSec = 0;
    std::uint64_t batchTasksCompleted = 0;
    double batchThroughput = 0; //!< tasks per second.
    double avgBusyCores = 0;
    double utilization = 0;     //!< avgBusyCores / cores.
    std::uint64_t coreLoans = 0;
    std::uint64_t coreReclaims = 0;
    double primaryL2HitRate = 0;

    /** @name Observability (filled only when enabled) @{ */
    /** Buffered trace events, oldest first. */
    std::vector<hh::trace::Event> traceEvents;
    std::uint64_t traceDropped = 0;    //!< Ring overwrites.
    std::uint64_t traceOpenSpans = 0;  //!< Orphaned spans (bug if !=0).
    std::uint64_t traceUnbalanced = 0; //!< Double closes (bug if !=0).
    /** End-of-run snapshot of every registered metric. */
    std::vector<hh::stats::MetricRegistry::Sample> metricsFinal;
    /** Periodic samples (label filled by the cluster layer). */
    hh::stats::SampledSeries metricSeries;
    /** Harvest telemetry (economics totals always, rows if enabled). */
    ServerTelemetry telemetry;
    /** @} */

    /** @name Auditing (filled only when auditing is enabled) @{ */
    std::uint64_t auditsRun = 0;        //!< Invariant sweeps performed.
    std::uint64_t auditViolations = 0;  //!< Total violations (bug if !=0).
    std::uint64_t faultsInjected = 0;   //!< Fault actions fired.
    /** First violation reports (capped by the auditor). */
    std::vector<hh::check::Violation> auditReports;
    /** @} */

    /** Average P99 across services (ms). */
    double avgP99Ms() const;
    /** Average median across services (ms). */
    double avgP50Ms() const;
};

/** @name Service-graph seam (src/svc/) @{ */

/**
 * How one Primary VM slot participates in a service graph. Plain data
 * so `hh_cluster` needs no dependency on `src/svc/` — the fleet layer
 * computes placements and hands each server its plan.
 */
struct GraphVmPlan
{
    bool used = false;  //!< Slot hosts a graph tier VM.
    bool front = false; //!< Front tier: runs the open-loop loadgen.
    std::uint32_t tier = 0;
    std::string service; //!< ServiceSpec name of the tier.
    /** Alibaba-trace per-slot arrival-rate scale (front only). */
    double rateScale = 1.0;
};

/** Per-server placement plan; `enabled == false` is classic mode. */
struct GraphServerPlan
{
    bool enabled = false;
    std::vector<GraphVmPlan> vms; //!< One per Primary VM slot.
};

/**
 * Callbacks a server makes into the RPC-tree engine (implemented by
 * `hh::svc::RpcEngine`). The engine outlives the run and is installed
 * with `ServerSim::setGraphHooks` right after construction.
 */
class GraphHooks
{
  public:
    virtual ~GraphHooks() = default;
    /** May @p vm accept a new root right now? False = shed (the
     *  engine accounts the shed root; the arrival budget is spent). */
    virtual bool admitRoot(std::uint32_t vm) = 0;
    /** A root request was injected as @p reqId on @p vm. */
    virtual void onRootArrival(std::uint32_t vm,
                               std::uint64_t reqId) = 0;
    /** First I/O call site of @p reqId. Return true to take over the
     *  block (fan out child RPCs; the server skips its synthetic
     *  backend and waits for graphUnblock). */
    virtual bool onCallSite(std::uint64_t reqId) = 0;
    /** @p reqId ran all its segments; drain/record the tree node. */
    virtual void onComplete(std::uint64_t reqId) = 0;
    /** A GraphCall/GraphDone packet reached this server's NIC. */
    virtual void onGraphPacket(const hh::net::Packet &pkt) = 0;
    /** Engine state behind the server's 'svc' snapshot section. */
    virtual void serialize(hh::snap::Archive &ar) = 0;
    /** Cross-check tree state against the server (auditor). */
    virtual std::optional<std::string> auditInvariant() = 0;
    /** Resident engine footprint in bytes (bounded-memory gate). */
    virtual std::uint64_t footprintBytes() const = 0;
};

/** @} */

/**
 * One simulated server.
 */
class ServerSim
{
  public:
    /**
     * @param cfg      System configuration.
     * @param batchApp Batch application name for the Harvest VM.
     * @param seed     Experiment seed (overrides cfg.seed when
     *                 nonzero).
     */
    ServerSim(const SystemConfig &cfg, const std::string &batchApp,
              std::uint64_t seed = 0);

    /**
     * Graph-mode overload: @p plan replaces the default round-robin
     * service assignment — used slots host their tier's service (only
     * front slots generate arrivals), unused slots idle. The caller
     * must install the engine with setGraphHooks() before startRun()
     * or loadState().
     */
    ServerSim(const SystemConfig &cfg, const std::string &batchApp,
              const GraphServerPlan &plan, std::uint64_t seed = 0);

    ~ServerSim();

    ServerSim(const ServerSim &) = delete;
    ServerSim &operator=(const ServerSim &) = delete;

    /** Run the simulation to completion and collect results. */
    ServerResults run();

    /** @name Checkpointable run phases @{ */

    /**
     * Seed the initial events (arrivals, harvest cores, agent ticks,
     * sampler, injector). run() == startRun() + advanceRun(horizon())
     * + finishRun(); the split exists so callers can checkpoint
     * between bounded advances. Call exactly once per simulation —
     * and never after loadState(), which restores a started run.
     */
    void startRun();

    /**
     * Execute events up to min(@p until, horizon()). The clock ends
     * on the last executed event, not @p until, so resumed runs
     * replay identically regardless of where the epochs fell.
     */
    void advanceRun(hh::sim::Cycles until);

    /** Final audit sweep, teardown and result aggregation. */
    ServerResults finishRun();

    /** True once every request completed (end_time_ is valid). */
    bool finished() const { return done_; }

    /** Current simulated time (checkpoint manifests). */
    hh::sim::Cycles now() const { return sim_.now(); }

    /** Hard horizon guarding pathological configurations. */
    static hh::sim::Cycles horizon()
    {
        return hh::sim::secToCycles(600.0);
    }

    /**
     * Save the complete simulator state to @p ar / restore it from
     * @p ar (the archive's mode decides). Restoring requires a
     * ServerSim freshly constructed with the same SystemConfig,
     * batch application and seed; the caller checks ar.ok() after.
     */
    void saveState(hh::snap::Archive &ar) { serializeState(ar); }
    void loadState(hh::snap::Archive &ar) { serializeState(ar); }
    /** @} */

    /** The embedded HardHarvest controller (tests). */
    hh::core::HardHarvestController &controller() { return *ctrl_; }

    /** The server's metric registry (tests, ad-hoc inspection). */
    hh::stats::MetricRegistry &metrics() { return registry_; }

    /** The auditor, or nullptr when auditing is disabled. */
    hh::check::Auditor *auditor() { return auditor_.get(); }

    /** The fault injector, or nullptr when injection is disabled. */
    hh::check::FaultInjector *faultInjector() { return injector_.get(); }

    /** The observation view, or nullptr when telemetry is disabled. */
    hh::stats::ObservationView *telemetryView()
    {
        return telemetry_.get();
    }

    /**
     * Every harvest tap read at @p at: the one source of the epoch
     * rows, the policy's view and the run totals.
     */
    hh::stats::ServerCounters counters(hh::sim::Cycles at) const;

    /** The harvest policy. */
    const HarvestPolicy &harvestPolicy() const { return policy_; }

    /** The cache-lease manager, or nullptr unless cacheLendEnabled. */
    hh::lease::CacheLeaseManager *leaseManager()
    {
        return lease_mgr_.get();
    }

    const SystemConfig &config() const { return cfg_; }

    /** The arena every cache array of this server lives in (tests). */
    const hh::cache::ColumnArena &columnArena() const { return arena_; }

    /** @name Service-graph seam (src/svc/ FleetSim + RpcEngine) @{ */

    /** Install the RPC-tree engine. Not owned; must outlive the sim. */
    void setGraphHooks(GraphHooks *hooks) { graph_hooks_ = hooks; }

    /** This server's placement plan (enabled=false in classic mode). */
    const GraphServerPlan &graphPlan() const { return graph_plan_; }

    /**
     * Inject one request on @p vm right now (root arrival body or a
     * child RPC's service invocation). @return its request id.
     */
    std::uint64_t graphInjectRequest(std::uint32_t vm);

    /**
     * Unblock @p reqId, parked at its onCallSite() since @p blockedAt:
     * accrues the real I/O wait (breakdown, EWMA, trace) and delivers
     * the response packet that re-readies it.
     */
    void graphUnblock(std::uint32_t vm, std::uint64_t reqId,
                      hh::sim::Cycles blockedAt);

    /** Deliver @p pkt to this server's own NIC (same-server tier). */
    void graphLoopback(const hh::net::Packet &pkt);

    /** Schedule a cross-server wire arrival at absolute @p when. */
    void graphScheduleWireArrival(const hh::net::Packet &pkt,
                                  hh::sim::Cycles when);

    /** Record a post-warmup end-to-end (tree-root) latency tap. */
    void graphRecordE2e(double us)
    {
        latency_hist_us_.add(us);
    }

    /**
     * Fleet-wide drain: mark the run finished at @p end. In graph
     * mode a server never self-finishes (a transiently idle back tier
     * is not done — more RPCs may still arrive over the wire); the
     * fleet coordinator declares the common end time instead.
     */
    void setGraphDone(hh::sim::Cycles end);

    /** True when the event queue is empty (fleet window barrier). */
    bool simIdle() const { return sim_.idle(); }

    /** Earliest pending event. @pre !simIdle() */
    hh::sim::Cycles nextEventTime() const
    {
        return sim_.nextEventTime();
    }

    /** Is @p reqId live and blocked on I/O? (engine audit) */
    bool requestBlocked(std::uint64_t reqId) const;
    /** @} */

  private:
    /** Phase of a core's scheduling state machine. */
    enum class Phase
    {
        Idle,        //!< Spinning/waiting for work.
        RunPrimary,  //!< Executing a Primary request segment.
        RunHarvest,  //!< Executing a Harvest slice (or lent idle).
        Transition,  //!< Paying reassignment/flush costs.
    };

    /** A partially executed Harvest VM task (vCPU work unit). */
    struct HarvestSlice
    {
        std::uint64_t id = 0;
        hh::sim::Cycles remainingCompute = 0;
        std::uint32_t remainingAccesses = 0;
        /** Residual sampled-replay weight (see Request). */
        std::int32_t samplingCarry = 0;

        void
        serialize(hh::snap::Archive &ar)
        {
            ar.io(id);
            ar.io(remainingCompute);
            ar.io(remainingAccesses);
            ar.io(samplingCarry);
        }
    };

    /** Runtime scheduling state of one core. */
    struct CoreCtx
    {
        Phase phase = Phase::Idle;
        std::uint64_t runningRequest = 0;
        std::optional<HarvestSlice> slice;
        hh::sim::Cycles sliceStart = 0;
        hh::sim::Cycles sliceDuration = 0;
        hh::sim::EventId pendingEvent = hh::sim::kInvalidEventId;
        /** When the in-flight segment completes (fault injection). */
        hh::sim::Cycles segmentEnd = 0;
        hh::sim::Cycles idleSince = 0;
        unsigned anchoredBlocked = 0; //!< Blocked requests anchored.
        bool onLoan = false;          //!< Lent to the Harvest VM.

        /** pendingEvent is restored verbatim: the structural event-
         *  queue snapshot keeps stored EventIds valid across a
         *  save/load cycle. */
        void
        serialize(hh::snap::Archive &ar)
        {
            ar.io(phase);
            ar.io(runningRequest);
            ar.io(slice);
            ar.io(sliceStart);
            ar.io(sliceDuration);
            ar.io(pendingEvent);
            ar.io(segmentEnd);
            ar.io(idleSince);
            ar.io(anchoredBlocked);
            ar.io(onLoan);
        }
    };

    /** Runtime state of one VM. */
    struct VmCtx
    {
        hh::vm::VmDesc desc;
        std::unique_ptr<hh::cache::SetAssocArray> l3;
        // Primary-only:
        std::unique_ptr<hh::workload::ServiceWorkload> service;
        std::unique_ptr<hh::workload::LoadGenerator> loadgen;
        unsigned arrivalsRemaining = 0;
        unsigned completed = 0;
        unsigned warmupSkip = 0;
        hh::stats::LatencyRecorder latencies; //!< ms
        // Mean-breakdown accumulators (cycles).
        hh::cpu::LatencyBreakdown breakdownSum;
        std::uint64_t breakdownCount = 0;
    };

    /** @name Setup @{ */
    void buildVms(const std::string &batchApp);
    void buildCores();
    void scheduleFirstArrivals();
    /** Register every component's stats into registry_. */
    void registerMetrics();
    /**
     * Register the invariants into auditor_: the cross-component ones
     * here, the subsystem-local ones as delegations to their owners.
     */
    void registerInvariants();
    /** Register the perturbation actions into injector_. */
    void registerFaultActions();
    /** @} */

    /** @name Tracing helpers @{ */
    /** Request-span track for @p vm. */
    static std::uint32_t requestTrack(std::uint32_t vm)
    {
        return hh::trace::kRequestTrackBase + vm;
    }
    /** Span-accounting key of a core's lend transition. */
    static std::uint64_t lendKey(unsigned core)
    {
        return (std::uint64_t{2} << 60) + core;
    }
    /** Span-accounting key of a core's reclaim transition. */
    static std::uint64_t reclaimKey(unsigned core)
    {
        return (std::uint64_t{3} << 60) + core;
    }
    /** @} */

    /** @name Request path @{ */
    void onArrival(std::uint32_t vm);
    void onPacket(const hh::net::Packet &pkt);
    void tryDispatch(std::uint32_t vm);
    void startRequestOnCore(unsigned core, std::uint64_t reqId,
                            hh::sim::Cycles overhead,
                            hh::sim::Cycles reassignPart,
                            hh::sim::Cycles flushPart);
    /** Live request @p id, or nullptr. */
    const hh::cpu::Request *findRequest(std::uint64_t id) const;
    /** Live request @p id; panics naming @p where if it is absent. */
    hh::cpu::Request &liveRequest(std::uint64_t id, const char *where);
    void executeSegment(unsigned core, std::uint64_t reqId);
    void onSegmentDone(unsigned core, std::uint64_t reqId);
    void completeRequest(unsigned core, std::uint64_t reqId);
    /** @} */

    /** @name Harvesting @{ */
    void onCoreIdle(unsigned core);
    bool coreLendable(unsigned core) const;
    /** May blocked-anchored cores of @p vm be harvested right now? */
    bool blockHarvestAllowed(std::uint32_t vm) const;
    void lendCore(unsigned core);
    /**
     * Lend-transition costs paid; take up harvest work. Only a
     * @p tracked completion (CoreCtx::pendingEvent) clears the
     * pending id; the resurrected race schedules untracked ones.
     */
    void onLendDone(unsigned core, bool tracked);
    void beginHarvestWork(unsigned core);
    void startHarvestSlice(unsigned core);
    void onHarvestSliceDone(unsigned core);
    void reclaimCore(unsigned core, std::uint32_t vm);
    /** Reclaim-transition costs paid; hand the core back. */
    void onReclaimDone(unsigned core, std::uint32_t vm,
                       hh::sim::Cycles reassignCost,
                       hh::sim::Cycles flushCost);
    void preemptHarvestSlice(unsigned core);
    /**
     * Software agent period. Not a PeriodicTask: its snapshot carries
     * no pending id, and it ends by firing once more after done_
     * (cancelling it instead would change executedEvents).
     */
    void agentTick();
    /** @} */

    /** @name Events and snapshot plumbing @{ */
    /**
     * Schedule the event @p t names, @p delay cycles from now, with
     * the handler rearmEvent(t) maps it to. Panics here, at the
     * schedule site, when the kind has no handler.
     */
    hh::sim::EventId post(hh::sim::Cycles delay,
                          const hh::snap::SnapTag &t);
    /** As post(), at absolute time @p when. */
    hh::sim::EventId postAt(hh::sim::Cycles when,
                            const hh::snap::SnapTag &t);
    /** Deliver a backend I/O response through the NIC. */
    void deliverIoResponse(std::uint32_t vm, std::uint64_t reqId);
    /**
     * The one tag -> handler map: post()/postAt() schedule the
     * closure it returns, and a checkpoint restore re-arms pending
     * events through it. Empty for a kind this server cannot handle.
     */
    hh::sim::Simulator::Callback
    rearmEvent(const hh::snap::SnapTag &t);
    /** Bidirectional body behind saveState()/loadState(). */
    void serializeState(hh::snap::Archive &ar);
    /** @} */

    /** @name Helpers @{ */
    VmCtx &vmCtx(std::uint32_t vm);
    int idleBoundCore(std::uint32_t vm) const;
    unsigned idleBoundCores(std::uint32_t vm) const;
    unsigned busyPrimaryCores(std::uint32_t vm) const;
    hh::sim::Cycles dispatchOverhead(std::uint32_t vm);
    hh::sim::Cycles ctxSwitchCost(unsigned core) const;
    /** @} */

    /** @name Periodic services @{ */
    /**
     * Stop every periodic service, in a fixed order (sampler,
     * injector, telemetry, policy, lease): cancels shape the event
     * slab's free list. The sampler and telemetry record their final
     * partial row / epoch.
     */
    void stopPeriodicTasks();
    /** @} */

    /** @name Harvest policy (PR 8) @{ */
    /** Epoch tick: feed the policy one row, apply its decisions. */
    void policyTick();
    /** Push decision changes into masks/partitions at the boundary. */
    void applyPolicyDecisions();
    /** @} */

    /** @name Cache-capacity leasing (src/lease/) @{ */
    /** Lease tick: expire/recall/grant per the policy. */
    void leaseTick();
    /** Grant @p vm's lease (flush + mask the leased ways). */
    void leaseGrant(std::uint32_t vm, double l2Fraction,
                    unsigned l3Ways);
    /** Release @p vm's lease (flush-on-return). */
    void leaseRelease(std::uint32_t vm, bool expired);
    /** Does @p vm have an idle or lent core (idle cache to spare)? */
    bool vmHasIdleCapacity(std::uint32_t vm) const;
    /** Point every batch-running core at a lender's leased ways. */
    void rebindLeaseOverflow();
    /** @} */

    /** @name Helpers (cont.) @{ */
    void configureCoreForHarvest(unsigned core);
    void configureCoreForPrimary(unsigned core);
    bool allDone() const;
    void noteDoneMaybeFinish();
    /** @} */

    SystemConfig cfg_;
    std::uint64_t seed_;

    hh::sim::Simulator sim_;
    hh::mem::Dram dram_;
    hh::noc::Mesh2D mesh_;
    hh::net::Fabric fabric_;
    std::unique_ptr<hh::net::Nic> nic_;
    std::unique_ptr<hh::core::HardHarvestController> ctrl_;
    std::unique_ptr<hh::core::RequestContextMemory> ctxmem_;
    std::unique_ptr<hh::vm::Hypervisor> hyp_;
    hh::vm::SmartHarvestPolicy sw_policy_;
    hh::sim::Rng rng_;

    /**
     * Host memory behind every cache array of this server (each VM's
     * L3 partition, each core's private levels), sized up front from
     * the geometries buildVms() and buildCores() build. Declared
     * before vms_ and cores_, so it outlives them.
     */
    hh::cache::ColumnArena arena_;

    std::vector<VmCtx> vms_;      //!< [0..primaryVms-1] primary, last harvest.
    std::uint32_t harvest_vm_ = 0;
    std::unique_ptr<hh::workload::BatchWorkload> batch_;
    std::deque<HarvestSlice> harvest_queue_;
    std::uint64_t next_slice_id_ = 1;
    std::uint64_t batch_tasks_done_ = 0;

    std::vector<std::unique_ptr<hh::cpu::Core>> cores_;
    std::vector<CoreCtx> core_ctx_;

    /** In-flight requests; ascending id order keeps the request
     *  invariant's first report deterministic. */
    std::map<std::uint64_t, hh::cpu::Request> requests_;
    std::uint64_t next_request_id_ = 1;
    std::unordered_map<std::uint64_t, unsigned> anchor_; //!< req -> core

    /** Reclaims in flight per VM (requests they will consume). */
    std::vector<unsigned> pending_reclaims_;

    /** Last reclaim time per VM (software lending backoff). */
    std::vector<hh::sim::Cycles> last_reclaim_at_;

    /** Ghost VMs registered by the chunk-pressure fault action. */
    std::vector<std::uint32_t> ghost_vms_;
    std::uint32_t next_ghost_ = 0;

    /** EWMA of blocked-on-I/O durations per VM (adaptive ext.). */
    std::vector<double> ewma_block_cycles_;

    hh::stats::Counter loans_{"server.loans"};
    hh::stats::Counter reclaims_{"server.reclaims"};
    bool done_ = false;
    hh::sim::Cycles end_time_ = 0;

    /** @name Observability @{ */
    hh::stats::MetricRegistry registry_;
    /** Null unless cfg_.metricsEnabled. */
    std::unique_ptr<hh::stats::MetricSampler> sampler_;
    /** Null unless cfg_.traceEnabled: hot paths branch on this. */
    std::unique_ptr<hh::trace::Tracer> tracer_;
    /** @} */

    /** @name Harvest telemetry plane @{ */
    /** Sentinel for core_loan_start_: core not currently lent. */
    static constexpr std::uint64_t kNotLent = ~std::uint64_t{0};
    /** Reclaim-latency distribution in cycles (always-on tap). */
    hh::stats::LogHistogram reclaim_hist_{48};
    /** Post-warmup request latencies in us (always-on tap). */
    hh::stats::LogHistogram latency_hist_us_{48};
    /** Completed-loan core-cycles per VM (live loans added lazily). */
    std::vector<std::uint64_t> vm_lent_cycles_;
    std::vector<std::uint64_t> vm_reclaims_;
    std::vector<std::uint64_t> vm_reclaim_cycles_;
    /** Per-core loan start time, kNotLent when not on loan. */
    std::vector<std::uint64_t> core_loan_start_;
    /** Of batch_tasks_done_, those finished on lent cores. */
    std::uint64_t batch_tasks_loaned_ = 0;
    /** Null unless cfg_.telemetryEnabled. */
    std::unique_ptr<hh::stats::ObservationView> telemetry_;
    hh::sim::PeriodicTask telemetry_task_;
    /** @} */

    /** @name Harvest policy (PR 8) @{ */
    HarvestPolicy policy_;
    /** Policy's own epoch view; null unless policy_.ticks(). */
    std::unique_ptr<hh::stats::ObservationView> policy_view_;
    hh::sim::PeriodicTask policy_task_;
    /** Last harvest-way fraction pushed into each VM's masks, so the
     *  boundary application only touches partitions that changed. */
    std::vector<double> policy_applied_fraction_;
    /** @} */

    /** @name Cache-capacity leasing (src/lease/) @{ */
    /** Null unless cfg_.cacheLendEnabled. */
    std::unique_ptr<hh::lease::CacheLeaseManager> lease_mgr_;
    hh::sim::PeriodicTask lease_task_;
    /** @} */

    /** @name Auditing / fault injection @{ */
    /** Null unless cfg_.auditEnabled (or HH_AUDIT=1). */
    std::unique_ptr<hh::check::Auditor> auditor_;
    /** Null unless cfg_.faults.enabled. */
    std::unique_ptr<hh::check::FaultInjector> injector_;
    /** @} */

    /** The present services' tick chains, for the re-arm dispatcher. */
    std::vector<hh::sim::PeriodicTask *> periodic_;

    /** @name Service-graph mode (src/svc/) @{ */
    /** Placement plan; enabled=false means classic single-hop mode. */
    GraphServerPlan graph_plan_;
    /** RPC-tree engine, owned by the fleet layer; null in classic
     *  mode and between construction and setGraphHooks(). Every use
     *  null-checks — the auditor may fire before installation. */
    GraphHooks *graph_hooks_ = nullptr;
    /** @} */
};

} // namespace hh::cluster

#endif // HH_CLUSTER_SERVER_H

/**
 * @file
 * Fleet coordinator: N communicating servers under one service graph.
 *
 * Unlike the classic cluster (8 *independent* servers), a graph fleet
 * exchanges RPC packets across servers, so the per-server
 * discrete-event simulations must agree on time. The coordinator uses
 * conservative windows: with a one-way cross-server RPC latency of L
 * cycles, a message sent at time t cannot affect any server before
 * t + L, so every server may safely advance to B = (earliest pending
 * event anywhere) + L without seeing messages from the others. At the
 * barrier the coordinator drains every engine's outbox and schedules
 * the arrivals (all at times >= B) into the destination simulations,
 * then opens the next window. Within a window servers run in parallel
 * (`runParallel`); the exchange is sequential in server order, so the
 * whole run is bit-identical for any worker count.
 *
 * Checkpoints are taken only at barriers: outboxes are empty by
 * construction and every cross-server message still in flight is a
 * `kGraphWireArrive` event already resident in its *destination*
 * server's queue — the per-server snapshot machinery captures it like
 * any other event. Resuming reconstructs the fleet, restores the
 * blobs, and recomputes the identical barrier sequence from the
 * restored queues.
 */

#ifndef HH_SVC_FLEET_H
#define HH_SVC_FLEET_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/server.h"
#include "cluster/system_config.h"
#include "svc/graph_spec.h"
#include "svc/rpc_engine.h"

namespace hh::sim {
class ThreadPool;
}

namespace hh::svc {

/** Per-tier aggregate of one fleet run. */
struct TierResult
{
    std::string service;
    std::uint64_t nodes = 0; //!< Tree nodes finished in this tier.
    std::uint64_t sheds = 0; //!< Work shed by saturated tier VMs.
    double p50Us = 0;        //!< Node latency (arrival -> drained).
    double p99Us = 0;
};

/** Aggregated results of one fleet run. */
struct FleetResults
{
    std::string graph;
    unsigned servers = 0;
    unsigned depth = 0;

    std::uint64_t rootsDone = 0;
    std::uint64_t rootsShed = 0;
    std::vector<TierResult> tiers;

    /** End-to-end (tree-root, post-warmup) latency. */
    std::uint64_t e2eCount = 0;
    double e2eP50Us = 0;
    double e2eP99Us = 0;

    /**
     * Fleet P99 over the servers' merged post-warmup request-latency
     * buckets (the same `ServerTelemetry::totals.latencyHist` plane
     * the TelemetryHub aggregates) — in graph mode these taps carry
     * the end-to-end tree latencies recorded at the front tier.
     */
    double fleetP99Us = 0;

    /** @name Harvesting economics (summed across servers) @{ */
    std::uint64_t batchTasks = 0;
    double batchThroughput = 0; //!< tasks/s, summed.
    std::uint64_t harvestedCycles = 0;
    std::uint64_t coreLoans = 0;
    std::uint64_t coreReclaims = 0;
    double avgUtilization = 0; //!< Mean across servers.
    /** @} */

    double elapsedSec = 0;       //!< Simulated seconds (max server).
    std::uint64_t wireMessages = 0; //!< Cross-server packets sent.

    /** @name Auditing (non-zero only when auditing is enabled) @{ */
    std::uint64_t auditsRun = 0;       //!< Summed across servers.
    std::uint64_t auditViolations = 0; //!< Summed (bug if != 0).
    /** @} */

    /** @name Run-shape diagnostics (excluded from serialized()) @{ */
    /** Synchronization windows executed — a *whole-run* count, so a
     *  resumed run (which replays only the tail) legitimately differs. */
    std::uint64_t windows = 0;
    std::uint64_t maxPeakLiveNodes = 0;  //!< Max over servers.
    std::uint64_t maxFootprintBytes = 0; //!< Max engine footprint.
    /** @} */

    /**
     * Canonical byte-exact serialization (hexfloat) of every
     * deterministic field; two runs are bit-identical iff equal.
     */
    std::string serialized() const;
};

/**
 * One fleet simulation. Construction builds the servers (graph-mode
 * plans from `buildGraphPlacement`) and installs one `RpcEngine`
 * each; `cfg.graphSpec` is overwritten with the spec's canonical text
 * so the checkpoint configFingerprint covers the topology.
 */
class FleetSim
{
  public:
    FleetSim(const ServiceGraphSpec &spec,
             const hh::cluster::SystemConfig &cfg, std::uint64_t seed);
    ~FleetSim();

    FleetSim(const FleetSim &) = delete;
    FleetSim &operator=(const FleetSim &) = delete;

    /** Seed initial events on every server. Not after resume(). */
    void start();

    /**
     * Run synchronization windows until every tree has drained or the
     * barrier reaches @p until (0 = no bound).
     *
     * @param workers Window-phase thread-pool workers (0 = auto).
     */
    void advanceWindows(unsigned workers, hh::sim::Cycles until = 0);

    /** Every root resolved and no tree node is live anywhere. */
    bool drained() const;

    /** The last conservative-window barrier reached. */
    hh::sim::Cycles barrier() const { return barrier_; }

    /** Live tree nodes across all servers (mid-run state probes). */
    std::uint64_t totalLiveNodes() const;

    /** Declare the end time, drain tails, and aggregate results. */
    FleetResults finish(unsigned workers);

    /** Save every server to @p path (only legal at a barrier). */
    bool save(const std::string &path, std::string *error) const;

    /**
     * Restore a fleet saved by save(): validates the fingerprint
     * (including the graph topology) and reloads every server blob.
     * Call instead of start(); then advanceWindows() + finish() as
     * usual.
     */
    bool resume(const std::string &path, std::string *error);

  private:
    ServiceGraphSpec spec_;
    hh::cluster::SystemConfig cfg_;
    std::uint64_t seed_;
    hh::sim::Cycles rpc_latency_ = 0;

    std::vector<std::unique_ptr<hh::cluster::ServerSim>> sims_;
    std::vector<std::unique_ptr<RpcEngine>> engines_;
    std::vector<std::string> batch_apps_;

    /**
     * The window-phase workers for @p workers (0 = auto), or null when
     * that resolves to one: the servers then run on the calling
     * thread. Built on first use and kept, so a run does not start
     * and join threads once per window; rebuilt only when a call asks
     * for a different count.
     */
    hh::sim::ThreadPool *pool(unsigned workers);

    hh::sim::Cycles barrier_ = 0;
    std::uint64_t windows_ = 0;
    std::unique_ptr<hh::sim::ThreadPool> pool_;
};

/** Convenience: construct, start, drain, finish. */
FleetResults runFleet(const ServiceGraphSpec &spec,
                      const hh::cluster::SystemConfig &cfg,
                      std::uint64_t seed, unsigned workers);

/**
 * Run a fresh fleet to the first barrier at or after @p at (or until
 * drained, whichever comes first) and checkpoint it to @p path.
 */
bool checkpointFleetAt(const ServiceGraphSpec &spec,
                       const hh::cluster::SystemConfig &cfg,
                       std::uint64_t seed, unsigned workers,
                       hh::sim::Cycles at, const std::string &path,
                       std::string *error = nullptr);

/** Resume a checkpointFleetAt() file and run to completion. */
std::optional<FleetResults>
resumeFleet(const std::string &path, const ServiceGraphSpec &spec,
            const hh::cluster::SystemConfig &cfg, std::uint64_t seed,
            unsigned workers, std::string *error = nullptr);

} // namespace hh::svc

#endif // HH_SVC_FLEET_H

/**
 * @file
 * Fleet-level telemetry hub: merges per-server ObservationView rows
 * into fleet time series and harvesting-economics accounting (PR 7).
 *
 * The hub is a pure post-processing step over the ServerTelemetry
 * payloads a run (or a resumed checkpoint) produced — it never touches
 * live simulation state. Everything it emits is derived only from
 * those payloads plus the SystemConfig, so its JSONL and report are
 * byte-identical for any thread-pool worker count and across
 * checkpoint save/load/resume, which the determinism tests assert.
 */

#ifndef HH_CLUSTER_TELEMETRY_HUB_H
#define HH_CLUSTER_TELEMETRY_HUB_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/server.h"
#include "cluster/system_config.h"
#include "trace/chrome_trace.h"

namespace hh::cluster {

/** One fleet epoch: servers merged by epoch index. */
struct FleetEpochRow
{
    std::uint64_t epoch = 0; //!< 1-based epoch index.
    std::uint64_t t = 0;     //!< Max epoch-end time across servers.
    unsigned serversReporting = 0;
    /**
     * Lent core-cycles over the epoch divided by the reporting
     * servers' total core-cycle budget for the epoch, in [0, 1].
     */
    double harvestIntensity = 0;
    /** Fleet P99 of requests completed during the epoch (ms). */
    double p99Ms = 0;
    std::uint64_t batchLoanedDelta = 0;
    std::uint64_t batchNativeDelta = 0;
    std::uint64_t harvestedCyclesDelta = 0;
    std::uint64_t reclaimsDelta = 0;
    /** @name Cache-lease signals (src/lease/) @{ */
    /** End-of-epoch L3 ways leased out, summed over servers/VMs. */
    std::uint64_t leasedWays = 0;
    /** Borrower-line occupancy change in leased ways over the epoch. */
    std::int64_t leaseOccupancyDelta = 0;
    /** Leased-way-cycles lent out during the epoch. */
    std::uint64_t leaseWayCyclesDelta = 0;
    /** @} */
};

/** Fleet-level harvesting economics over the whole run. */
struct TelemetrySummary
{
    unsigned servers = 0;
    unsigned coresPerServer = 0;
    double horizonSec = 0; //!< Max server end time.
    /** Core-seconds the Harvest VMs ran on borrowed Primary cores. */
    double harvestedCoreSeconds = 0;
    std::uint64_t batchLoaned = 0; //!< Batch tasks done on lent cores.
    std::uint64_t batchNative = 0; //!< ... on native harvest cores.
    /** Batch work absorbed per harvested core-second. */
    double batchPerLentCoreSecond = 0;
    std::uint64_t reclaims = 0;
    double reclaimP50Us = 0; //!< Fleet reclaim-latency median.
    double reclaimP99Us = 0; //!< Fleet reclaim-latency tail.
    double latencyP99Ms = 0; //!< Fleet post-warmup request P99.
    /** @name Cache-lease economics (src/lease/) @{ */
    std::uint64_t leaseGrants = 0;
    std::uint64_t leaseRecalls = 0;
    std::uint64_t leaseExpiries = 0;
    std::uint64_t leaseFlushedLines = 0;
    /** L3 way-seconds of capacity lent across the fleet. */
    double leaseWaySeconds = 0;
    /** @} */
};

/**
 * Merges per-server telemetry payloads into the fleet view.
 *
 * The hub deliberately excludes worker counts, host names and
 * wall-clock from its outputs — they would break the any-worker-count
 * byte-identity contract.
 */
class TelemetryHub
{
  public:
    /**
     * Merge @p servers (in server order, as in
     * ClusterResults::serverTelemetry) in one pass.
     */
    TelemetryHub(const SystemConfig &cfg,
                 std::vector<ServerTelemetry> servers);

    /** Merged fleet timeline, one row per epoch index. */
    const std::vector<FleetEpochRow> &timeline() const
    {
        return timeline_;
    }

    /** Whole-run harvesting economics. */
    TelemetrySummary summary() const;

    /**
     * Append-only JSONL export: a header row, one row per fleet
     * epoch, one row per (server, epoch, VM) feature tuple, and a
     * final economics row. Every row carries a FNV-1a checksum of its
     * preceding bytes in a trailing "crc" field (ResultLedger-style).
     */
    std::string jsonl() const;

    /** Fleet time series as Chrome counter tracks. */
    std::vector<hh::trace::CounterTrack> counterTracks() const;

    /** counterTracks() rendered as a trace_event JSON document. */
    std::string counterTrackJson() const;

    /** One-page plain-text harvesting-economics report. */
    std::string report() const;

  private:
    SystemConfig cfg_;
    std::vector<ServerTelemetry> servers_;
    std::vector<FleetEpochRow> timeline_;
};

/**
 * Write @p body to @p path; false on I/O failure. Shared by the
 * telemetry drivers for JSONL, counter-track and report files.
 */
bool writeTextFile(const std::string &path, const std::string &body);

} // namespace hh::cluster

#endif // HH_CLUSTER_TELEMETRY_HUB_H

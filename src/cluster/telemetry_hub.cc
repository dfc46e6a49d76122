#include "cluster/telemetry_hub.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "cluster/checkpoint.h"
#include "sim/jsonl.h"
#include "sim/time.h"
#include "stats/histogram.h"

namespace hh::cluster {

namespace {

/** Deterministic shortest-ish double rendering, matching the CSVs. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** Close a JSONL row: append the CRC of everything emitted so far. */
void
sealRow(std::ostringstream &os, std::string row)
{
    row += ",\"crc\":" + std::to_string(hh::sim::fnv1a64(row)) + "}\n";
    os << row;
}

} // namespace

TelemetryHub::TelemetryHub(const SystemConfig &cfg,
                           std::vector<ServerTelemetry> servers)
    : cfg_(cfg), servers_(std::move(servers))
{
    // Per-epoch merged request-latency deltas (us) and summed
    // core-cycle budget (epoch length x cores).
    std::vector<std::vector<std::uint64_t>> latency;
    std::vector<std::uint64_t> budget;
    for (const auto &t : servers_) {
        std::uint64_t prevT = 0;
        for (const auto &row : t.rows) {
            if (row.epoch == 0)
                continue;
            const std::size_t i = row.epoch - 1;
            if (timeline_.size() <= i) {
                timeline_.resize(i + 1);
                latency.resize(i + 1);
                budget.resize(i + 1, 0);
                timeline_[i].epoch = row.epoch;
            }
            FleetEpochRow &f = timeline_[i];
            f.t = std::max(f.t, row.t);
            ++f.serversReporting;
            f.batchLoanedDelta += row.batchLoanedDelta;
            f.batchNativeDelta += row.batchNativeDelta;
            f.harvestedCyclesDelta += row.harvestedCyclesDelta;
            f.reclaimsDelta += row.reclaimsDelta;
            for (const auto &vm : row.vms) {
                f.leasedWays += vm.leasedWays;
                f.leaseOccupancyDelta += vm.leaseOccupancyDelta;
            }
            f.leaseWayCyclesDelta += row.leaseWayCyclesDelta;
            budget[i] +=
                (row.t - prevT) * static_cast<std::uint64_t>(cfg_.cores);
            hh::stats::addBucketCounts(latency[i], row.latencyHistDelta);
            prevT = row.t;
        }
    }
    for (std::size_t i = 0; i < timeline_.size(); ++i) {
        FleetEpochRow &f = timeline_[i];
        f.harvestIntensity =
            budget[i] == 0 ? 0
                           : static_cast<double>(f.harvestedCyclesDelta) /
                                 static_cast<double>(budget[i]);
        f.p99Ms = hh::stats::logBucketPercentile(latency[i], 99.0) / 1000.0;
    }
}

TelemetrySummary
TelemetryHub::summary() const
{
    TelemetrySummary s;
    s.servers = static_cast<unsigned>(servers_.size());
    s.coresPerServer = cfg_.cores;
    std::uint64_t end = 0, harvested = 0, wayCycles = 0;
    std::vector<std::uint64_t> reclaimHist, latencyHist;
    for (const auto &srv : servers_) {
        const hh::stats::ServerCounters &t = srv.totals;
        end = std::max(end, t.t);
        harvested += t.harvestedCycles();
        s.batchLoaned += t.batchLoaned;
        s.batchNative += t.batchNative;
        s.reclaims += t.reclaims();
        s.leaseGrants += t.leaseGrants;
        s.leaseRecalls += t.leaseRecalls;
        s.leaseExpiries += t.leaseExpiries;
        s.leaseFlushedLines += t.leaseFlushedLines;
        wayCycles += t.leaseWayCycles;
        hh::stats::addBucketCounts(reclaimHist, t.reclaimHist);
        hh::stats::addBucketCounts(latencyHist, t.latencyHist);
    }
    s.leaseWaySeconds = hh::sim::cyclesToSec(wayCycles);
    s.horizonSec = hh::sim::cyclesToSec(end);
    s.harvestedCoreSeconds = hh::sim::cyclesToSec(harvested);
    s.batchPerLentCoreSecond =
        s.harvestedCoreSeconds == 0
            ? 0
            : static_cast<double>(s.batchLoaned) /
                  s.harvestedCoreSeconds;
    s.reclaimP50Us = hh::sim::cyclesToUs(static_cast<hh::sim::Cycles>(
        hh::stats::logBucketPercentile(reclaimHist, 50.0)));
    s.reclaimP99Us = hh::sim::cyclesToUs(static_cast<hh::sim::Cycles>(
        hh::stats::logBucketPercentile(reclaimHist, 99.0)));
    s.latencyP99Ms =
        hh::stats::logBucketPercentile(latencyHist, 99.0) / 1000.0;
    return s;
}

std::string
TelemetryHub::jsonl() const
{
    std::ostringstream os;
    {
        std::ostringstream row;
        row << "{\"kind\":\"header\",\"version\":1,\"servers\":"
            << servers_.size() << ",\"cores\":" << cfg_.cores
            << ",\"period_cycles\":" << cfg_.telemetryPeriod
            << ",\"fp\":\"" << hh::sim::jsonEscape(configFingerprint(cfg_))
            << "\"";
        sealRow(os, row.str());
    }
    for (const auto &f : timeline_) {
        std::ostringstream row;
        row << "{\"kind\":\"epoch\",\"epoch\":" << f.epoch
            << ",\"t_ms\":" << num(hh::sim::cyclesToMs(f.t))
            << ",\"servers\":" << f.serversReporting
            << ",\"intensity\":" << num(f.harvestIntensity)
            << ",\"p99_ms\":" << num(f.p99Ms)
            << ",\"batch_loaned\":" << f.batchLoanedDelta
            << ",\"batch_native\":" << f.batchNativeDelta
            << ",\"harvested_cycles\":" << f.harvestedCyclesDelta
            << ",\"reclaims\":" << f.reclaimsDelta
            << ",\"lease_ways\":" << f.leasedWays
            << ",\"lease_occ_delta\":" << f.leaseOccupancyDelta
            << ",\"lease_way_cycles\":" << f.leaseWayCyclesDelta;
        sealRow(os, row.str());
    }
    for (std::size_t srv = 0; srv < servers_.size(); ++srv) {
        for (const auto &r : servers_[srv].rows) {
            for (const auto &vm : r.vms) {
                std::ostringstream row;
                row << "{\"kind\":\"vm\",\"server\":" << srv
                    << ",\"epoch\":" << r.epoch << ",\"vm\":"
                    << vm.vm << ",\"util\":" << num(vm.coreUtil)
                    << ",\"mpki\":" << num(vm.mpki) << ",\"occ\":"
                    << num(vm.cacheOccupancy) << ",\"rq_ready\":"
                    << vm.rqReady << ",\"rq_occ\":" << vm.rqOccupancy
                    << ",\"rq_over\":" << vm.rqOverflow
                    << ",\"cores\":" << vm.coresBound << ",\"lent\":"
                    << vm.coresLent << ",\"pending\":"
                    << vm.pendingReclaims << ",\"lent_cycles\":"
                    << vm.lentCycles << ",\"reclaims\":"
                    << vm.reclaims << ",\"reclaim_cycles\":"
                    << vm.reclaimCycles << ",\"lease_ways\":"
                    << vm.leasedWays << ",\"lease_occ_delta\":"
                    << vm.leaseOccupancyDelta;
                sealRow(os, row.str());
            }
        }
    }
    {
        const TelemetrySummary s = summary();
        std::ostringstream row;
        row << "{\"kind\":\"economics\",\"horizon_s\":"
            << num(s.horizonSec) << ",\"harvested_core_s\":"
            << num(s.harvestedCoreSeconds) << ",\"batch_loaned\":"
            << s.batchLoaned << ",\"batch_native\":" << s.batchNative
            << ",\"batch_per_lent_core_s\":"
            << num(s.batchPerLentCoreSecond) << ",\"reclaims\":"
            << s.reclaims << ",\"reclaim_p50_us\":"
            << num(s.reclaimP50Us) << ",\"reclaim_p99_us\":"
            << num(s.reclaimP99Us) << ",\"latency_p99_ms\":"
            << num(s.latencyP99Ms) << ",\"lease_grants\":"
            << s.leaseGrants << ",\"lease_recalls\":"
            << s.leaseRecalls << ",\"lease_expiries\":"
            << s.leaseExpiries << ",\"lease_flushed\":"
            << s.leaseFlushedLines << ",\"lease_way_s\":"
            << num(s.leaseWaySeconds);
        sealRow(os, row.str());
    }
    return os.str();
}

std::vector<hh::trace::CounterTrack>
TelemetryHub::counterTracks() const
{
    hh::trace::CounterTrack intensity, p99, loaned, reclaims, leased;
    intensity.name = "harvest_intensity";
    p99.name = "fleet_p99_ms";
    loaned.name = "batch_loaned_per_epoch";
    reclaims.name = "reclaims_per_epoch";
    leased.name = "leased_l3_ways";
    for (const auto &f : timeline_) {
        intensity.samples.push_back({f.t, f.harvestIntensity});
        p99.samples.push_back({f.t, f.p99Ms});
        loaned.samples.push_back(
            {f.t, static_cast<double>(f.batchLoanedDelta)});
        reclaims.samples.push_back(
            {f.t, static_cast<double>(f.reclaimsDelta)});
        leased.samples.push_back(
            {f.t, static_cast<double>(f.leasedWays)});
    }
    return {std::move(intensity), std::move(p99), std::move(loaned),
            std::move(reclaims), std::move(leased)};
}

std::string
TelemetryHub::counterTrackJson() const
{
    return hh::trace::chromeCounterJson(counterTracks());
}

std::string
TelemetryHub::report() const
{
    const TelemetrySummary s = summary();
    const double fleetCoreSec = s.horizonSec *
                                static_cast<double>(s.servers) *
                                static_cast<double>(s.coresPerServer);
    const std::uint64_t batchTotal = s.batchLoaned + s.batchNative;
    const FleetEpochRow *peakInt = nullptr, *peakP99 = nullptr;
    for (const auto &f : timeline_) {
        if (!peakInt || f.harvestIntensity > peakInt->harvestIntensity)
            peakInt = &f;
        if (!peakP99 || f.p99Ms > peakP99->p99Ms)
            peakP99 = &f;
    }

    std::ostringstream os;
    os << "Harvest telemetry report\n"
       << "========================\n"
       << "fleet: " << s.servers << " server(s) x "
       << s.coresPerServer << " cores, horizon "
       << num(s.horizonSec) << " s\n"
       << "epochs: " << timeline_.size() << " (period "
       << num(hh::sim::cyclesToMs(cfg_.telemetryPeriod)) << " ms)\n"
       << "\nHarvesting economics\n"
       << "  harvested core-seconds: " << num(s.harvestedCoreSeconds)
       << " (" << num(fleetCoreSec == 0
                          ? 0
                          : 100.0 * s.harvestedCoreSeconds /
                                fleetCoreSec)
       << "% of fleet capacity)\n"
       << "  batch tasks on lent cores: " << s.batchLoaned << " of "
       << batchTotal << " ("
       << num(batchTotal == 0 ? 0
                              : 100.0 *
                                    static_cast<double>(s.batchLoaned) /
                                    static_cast<double>(batchTotal))
       << "% of batch work)\n"
       << "  batch tasks per lent core-second: "
       << num(s.batchPerLentCoreSecond) << "\n"
       << "  reclaims: " << s.reclaims << " (p50 "
       << num(s.reclaimP50Us) << " us, p99 " << num(s.reclaimP99Us)
       << " us)\n"
       << "  fleet request P99: " << num(s.latencyP99Ms) << " ms\n";
    if (s.leaseGrants > 0) {
        os << "\nCache-lease economics\n"
           << "  leases: " << s.leaseGrants << " granted, "
           << s.leaseRecalls << " recalled, " << s.leaseExpiries
           << " expired\n"
           << "  leased way-seconds: " << num(s.leaseWaySeconds)
           << "\n"
           << "  lines flushed at handoff/return: "
           << s.leaseFlushedLines << "\n";
    }
    if (peakInt && peakP99) {
        os << "\nTimeline peaks\n"
           << "  max harvest intensity: "
           << num(peakInt->harvestIntensity) << " (epoch "
           << peakInt->epoch << ", t="
           << num(hh::sim::cyclesToMs(peakInt->t)) << " ms)\n"
           << "  max epoch P99: " << num(peakP99->p99Ms)
           << " ms (epoch " << peakP99->epoch << ", t="
           << num(hh::sim::cyclesToMs(peakP99->t)) << " ms)\n";
    }
    return os.str();
}

bool
writeTextFile(const std::string &path, const std::string &body)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    return ok;
}

} // namespace hh::cluster

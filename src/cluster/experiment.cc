#include "cluster/experiment.h"

#include <sstream>
#include <utility>

#include "cluster/checkpoint.h"
#include "cluster/parallel.h"
#include "sim/log.h"
#include "workload/batch.h"

namespace hh::cluster {

double
ClusterResults::avgP99Ms() const
{
    if (services.empty())
        return 0;
    double s = 0;
    for (const auto &r : services)
        s += r.p99Ms;
    return s / static_cast<double>(services.size());
}

double
ClusterResults::avgP50Ms() const
{
    if (services.empty())
        return 0;
    double s = 0;
    for (const auto &r : services)
        s += r.p50Ms;
    return s / static_cast<double>(services.size());
}

std::string
ClusterResults::serialized() const
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const auto &r : services) {
        os << r.name << ' ' << r.count << ' ' << r.meanMs << ' '
           << r.p50Ms << ' ' << r.p99Ms << ' ' << r.queueMs << ' '
           << r.reassignMs << ' ' << r.flushMs << ' ' << r.execMs
           << ' ' << r.ioMs << '\n';
    }
    for (const auto &[app, tput] : batchThroughput)
        os << app << ' ' << tput << '\n';
    os << avgBusyCores << ' ' << utilization << ' ' << coreLoans
       << ' ' << coreReclaims << ' ' << primaryL2HitRate << '\n';
    // Lease section: absent unless the cache-lease subsystem did
    // anything, so default-config serializations are unchanged.
    if (leaseGrants || leaseRecalls || leaseExpiries ||
        leaseFlushedLines || leaseWayCycles) {
        os << "lease " << leaseGrants << ' ' << leaseRecalls << ' '
           << leaseExpiries << ' ' << leaseFlushedLines << ' '
           << leaseWayCycles << '\n';
    }
    // Audit section: absent unless auditing ran, so default-config
    // serializations are unchanged. Covers the sweep/violation/fault
    // counts plus every (capped) report verbatim — the determinism
    // tests thereby assert that fault injection itself is replayable.
    // Emitted before the observability sections so that the prefix
    // property "enabling tracing/metrics only appends" holds whether
    // or not auditing is on (e.g. under an HH_AUDIT=1 test sweep).
    if (auditsRun > 0) {
        os << "audit " << auditsRun << ' ' << auditViolations << ' '
           << faultsInjected << '\n';
        for (const auto &[srv, v] : auditReports)
            os << "violation server" << srv << " [" << v.component
               << "] t=" << v.time << ' ' << v.message << '\n';
    }
    // Registry-backed section: every metric of every server, in
    // registry (= lexicographic) order. Empty unless metrics were
    // enabled, so default-config serializations are unchanged.
    for (std::size_t s = 0; s < serverMetrics.size(); ++s) {
        for (const auto &m : serverMetrics[s])
            os << "server" << s << '.' << m.name << ' ' << m.value
               << '\n';
    }
    if (!traces.empty()) {
        os << "trace";
        for (const auto &t : traces)
            os << ' ' << t.pid << ':' << t.events.size() << '/'
               << t.dropped;
        os << ' ' << traceOpenSpans << ' ' << traceUnbalanced << '\n';
    }
    // Telemetry section: absent unless the telemetry plane was on, so
    // default-config serializations are unchanged. Covers every epoch
    // row of every server verbatim (hexfloat features included): the
    // determinism tests thereby assert the ObservationView itself is
    // bit-identical across worker counts and checkpoint resume.
    if (telemetryEnabled) {
        for (std::size_t s = 0; s < serverTelemetry.size(); ++s) {
            const ServerTelemetry &t = serverTelemetry[s];
            const hh::stats::ServerCounters &c = t.totals;
            os << "telemetry server" << s << " rows=" << t.rows.size()
               << " reclaims=" << c.reclaims() << " loaned="
               << c.batchLoaned << " native=" << c.batchNative
               << " harvested=" << c.harvestedCycles() << " end=" << c.t
               << '\n';
            for (const auto &row : t.rows) {
                os << "telemetry.row server" << s << " e=" << row.epoch
                   << " t=" << row.t << " harv="
                   << row.harvestedCyclesDelta << " rec="
                   << row.reclaimsDelta << " bl="
                   << row.batchLoanedDelta << " bn="
                   << row.batchNativeDelta;
                for (const auto &vm : row.vms)
                    os << " vm" << vm.vm << '=' << vm.coreUtil << '/'
                       << vm.mpki << '/' << vm.cacheOccupancy << '/'
                       << vm.rqReady << '/' << vm.coresLent << '/'
                       << vm.lentCycles;
                os << '\n';
            }
        }
    }
    return os.str();
}

std::string
ClusterResults::traceJson() const
{
    return hh::trace::chromeTraceJson(traces);
}

ServerResults
runServer(const SystemConfig &cfg, const std::string &batchApp,
          std::uint64_t seed)
{
    ServerSim sim(cfg, batchApp, seed);
    return sim.run();
}

ClusterResults
runCluster(const SystemConfig &cfg, unsigned servers,
           std::uint64_t seed, unsigned workers)
{
    const auto batch = hh::workload::batchApplications();
    if (servers == 0 || servers > batch.size())
        hh::sim::fatal("runCluster: servers must be in [1, ",
                       batch.size(), "]");

    // One task per server; each ServerSim owns its Simulator, RNG
    // streams and stats, so tasks share nothing mutable. Results are
    // collected by server index, making the aggregation below — and
    // therefore ClusterResults — bit-identical for any worker count.
    std::vector<ServerResults> runs =
        runParallel<ServerResults>(
            servers,
            [&cfg, &batch, seed](std::size_t s) {
                // Tag this worker's log lines with the server it is
                // simulating so interleaved warnings stay
                // attributable.
                const hh::sim::LogTagScope tag(
                    "server" + std::to_string(s));
                return runServer(cfg, batch[s].name,
                                 seed + static_cast<std::uint64_t>(s));
            },
            workers);
    return aggregateClusterResults(cfg, servers, std::move(runs));
}

ClusterResults
aggregateClusterResults(const SystemConfig &cfg, unsigned servers,
                        std::vector<ServerResults> runs)
{
    const auto batch = hh::workload::batchApplications();
    ClusterResults agg;
    for (unsigned s = 0; s < servers; ++s) {
        ServerResults &run = runs[s];
        if (cfg.traceEnabled) {
            hh::trace::ServerTrace t;
            t.pid = s;
            t.events = std::move(run.traceEvents);
            t.dropped = run.traceDropped;
            agg.traces.push_back(std::move(t));
            agg.traceOpenSpans += run.traceOpenSpans;
            agg.traceUnbalanced += run.traceUnbalanced;
        }
        if (cfg.metricsEnabled) {
            agg.serverMetrics.push_back(std::move(run.metricsFinal));
            run.metricSeries.label = "server" + std::to_string(s);
            agg.metricSeries.push_back(std::move(run.metricSeries));
        }
        if (cfg.telemetryEnabled) {
            agg.telemetryEnabled = true;
            agg.serverTelemetry.push_back(std::move(run.telemetry));
        }
        agg.auditsRun += run.auditsRun;
        agg.auditViolations += run.auditViolations;
        agg.faultsInjected += run.faultsInjected;
        for (auto &v : run.auditReports)
            agg.auditReports.emplace_back(s, std::move(v));
    }
    for (unsigned s = 0; s < servers; ++s) {
        agg.batchThroughput.emplace_back(batch[s].name,
                                         runs[s].batchThroughput);
    }

    // Average per-service stats across servers (services appear once
    // per server, same order).
    const auto &first = runs.front().services;
    for (std::size_t i = 0; i < first.size(); ++i) {
        ServiceResult r = first[i];
        for (unsigned s = 1; s < servers; ++s) {
            const auto &o = runs[s].services[i];
            r.count += o.count;
            r.meanMs += o.meanMs;
            r.p50Ms += o.p50Ms;
            r.p99Ms += o.p99Ms;
            r.queueMs += o.queueMs;
            r.reassignMs += o.reassignMs;
            r.flushMs += o.flushMs;
            r.execMs += o.execMs;
            r.ioMs += o.ioMs;
        }
        const double n = static_cast<double>(servers);
        r.meanMs /= n;
        r.p50Ms /= n;
        r.p99Ms /= n;
        r.queueMs /= n;
        r.reassignMs /= n;
        r.flushMs /= n;
        r.execMs /= n;
        r.ioMs /= n;
        agg.services.push_back(std::move(r));
    }

    for (const auto &run : runs) {
        agg.avgBusyCores += run.avgBusyCores;
        agg.utilization += run.utilization;
        agg.coreLoans += run.coreLoans;
        agg.coreReclaims += run.coreReclaims;
        agg.primaryL2HitRate += run.primaryL2HitRate;
        const hh::stats::ServerCounters &c = run.telemetry.totals;
        agg.leaseGrants += c.leaseGrants;
        agg.leaseRecalls += c.leaseRecalls;
        agg.leaseExpiries += c.leaseExpiries;
        agg.leaseFlushedLines += c.leaseFlushedLines;
        agg.leaseWayCycles += c.leaseWayCycles;
    }
    agg.avgBusyCores /= servers;
    agg.utilization /= servers;
    agg.primaryL2HitRate /= servers;
    return agg;
}

} // namespace hh::cluster

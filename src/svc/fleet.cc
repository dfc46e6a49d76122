#include "svc/fleet.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "cluster/checkpoint.h"
#include "cluster/parallel.h"
#include "sim/log.h"
#include "sim/thread_pool.h"
#include "sim/time.h"
#include "snapshot/file.h"
#include "stats/histogram.h"
#include "workload/batch.h"

namespace hh::svc {

using hh::sim::Cycles;

namespace {

/**
 * Run job(0) .. job(n-1): on @p pool when it is set, else in order on
 * the calling thread. Each job must touch only its own server.
 */
template <typename Job>
void
runEach(hh::sim::ThreadPool *pool, std::size_t n, const Job &job)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (pool)
            pool->submit([&job, i] { job(i); });
        else
            job(i);
    }
    if (pool)
        pool->wait();
}

} // namespace

std::string
FleetResults::serialized() const
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "graph " << graph << " servers=" << servers
       << " depth=" << depth << "\n";
    os << "roots done=" << rootsDone << " shed=" << rootsShed << "\n";
    for (std::size_t t = 0; t < tiers.size(); ++t) {
        const TierResult &tr = tiers[t];
        os << "tier" << t << " service=" << tr.service
           << " nodes=" << tr.nodes << " sheds=" << tr.sheds
           << " p50us=" << tr.p50Us << " p99us=" << tr.p99Us << "\n";
    }
    os << "e2e count=" << e2eCount << " p50us=" << e2eP50Us
       << " p99us=" << e2eP99Us << "\n";
    os << "fleet p99us=" << fleetP99Us << "\n";
    os << "batch tasks=" << batchTasks
       << " throughput=" << batchThroughput << "\n";
    os << "econ harvested=" << harvestedCycles
       << " loans=" << coreLoans << " reclaims=" << coreReclaims
       << " utilization=" << avgUtilization << "\n";
    os << "wire=" << wireMessages << " elapsed=" << elapsedSec
       << "\n";
    os << "audit runs=" << auditsRun
       << " violations=" << auditViolations << "\n";
    return os.str();
}

FleetSim::FleetSim(const ServiceGraphSpec &spec,
                   const hh::cluster::SystemConfig &cfg,
                   std::uint64_t seed)
    : spec_(spec), cfg_(cfg), seed_(seed ? seed : cfg.seed)
{
    // The canonical spec text rides the config so the checkpoint
    // fingerprint rejects resuming under a different topology.
    cfg_.graphSpec = spec_.canonicalText();
    rpc_latency_ = hh::sim::usToCycles(spec_.rpcLatencyUs);
    if (rpc_latency_ == 0)
        hh::sim::fatal("FleetSim: rpcLatencyUs rounds to 0 cycles");

    const GraphPlacement placement =
        buildGraphPlacement(spec_, cfg_, seed_);
    const auto batch = hh::workload::batchApplications();
    sims_.reserve(spec_.servers);
    engines_.reserve(spec_.servers);
    for (unsigned s = 0; s < spec_.servers; ++s) {
        batch_apps_.push_back(batch[s % batch.size()].name);
        sims_.push_back(std::make_unique<hh::cluster::ServerSim>(
            cfg_, batch_apps_.back(), placement.plans[s],
            seed_ + s));
        engines_.push_back(std::make_unique<RpcEngine>(
            spec_, placement.routing, s, *sims_[s], cfg_));
        sims_[s]->setGraphHooks(engines_[s].get());
    }
}

FleetSim::~FleetSim() = default;

void
FleetSim::start()
{
    for (auto &sim : sims_)
        sim->startRun();
}

bool
FleetSim::drained() const
{
    for (const auto &eng : engines_) {
        if (!eng->rootsFinished())
            return false;
    }
    return totalLiveNodes() == 0;
}

std::uint64_t
FleetSim::totalLiveNodes() const
{
    std::uint64_t live = 0;
    for (const auto &eng : engines_)
        live += eng->liveNodes();
    return live;
}

void
FleetSim::advanceWindows(unsigned workers, Cycles until)
{
    constexpr Cycles kNoEvent = std::numeric_limits<Cycles>::max();
    hh::sim::ThreadPool *const lanes = pool(workers);
    std::vector<std::size_t> busy;
    while (!drained() && (until == 0 || barrier_ < until)) {
        Cycles m = kNoEvent;
        for (const auto &sim : sims_) {
            if (!sim->simIdle())
                m = std::min(m, sim->nextEventTime());
        }
        if (m == kNoEvent) {
            // Unreachable while any tree lives: a live node implies a
            // pending event (its own segments, a child's, or an
            // in-flight wire arrival) somewhere in the fleet.
            hh::sim::panic("FleetSim: trees not drained but no "
                           "pending events anywhere");
        }
        // Conservative window: nothing sent at or after m can arrive
        // before B, so every server may run strictly below B without
        // seeing the others' messages.
        const Cycles B = m + rpc_latency_;
        // Only servers with an event below B have work this window;
        // a lone one runs here rather than on a worker.
        busy.clear();
        for (std::size_t s = 0; s < sims_.size(); ++s) {
            if (!sims_[s]->simIdle() && sims_[s]->nextEventTime() < B)
                busy.push_back(s);
        }
        runEach(busy.size() > 1 ? lanes : nullptr, busy.size(),
                [&](std::size_t i) {
                    sims_[busy[i]]->advanceRun(B - 1);
                });
        // Exchange, sequential in server order (determinism): every
        // arrival lands at sendTime + L >= B, i.e. in the future of
        // all servers.
        for (auto &eng : engines_) {
            for (const OutMsg &msg : eng->takeOutbox()) {
                const Cycles when = msg.sendTime + rpc_latency_;
                hh::net::Packet pkt = msg.pkt;
                pkt.arrival = when;
                sims_[msg.dstServer]->graphScheduleWireArrival(pkt,
                                                               when);
            }
        }
        barrier_ = B;
        ++windows_;
    }
}

FleetResults
FleetSim::finish(unsigned workers)
{
    if (!drained())
        hh::sim::panic("FleetSim::finish before the fleet drained");
    // The fleet, not any single server, declares the end time: a
    // transiently idle back tier was never "done", and all servers
    // must agree for merged statistics to be meaningful.
    for (auto &sim : sims_)
        sim->setGraphDone(barrier_);
    std::vector<hh::cluster::ServerResults> results(sims_.size());
    runEach(pool(workers), sims_.size(), [&](std::size_t s) {
        sims_[s]->advanceRun(hh::cluster::ServerSim::horizon());
        results[s] = sims_[s]->finishRun();
    });

    FleetResults r;
    r.graph = spec_.name;
    r.servers = spec_.servers;
    r.depth = spec_.depth();
    r.windows = windows_;

    // Engine-side aggregation: tree/tier statistics.
    std::vector<hh::stats::LogHistogram> tierHist(
        spec_.depth(), hh::stats::LogHistogram());
    hh::stats::LogHistogram e2e;
    r.tiers.resize(spec_.depth());
    for (unsigned t = 0; t < spec_.depth(); ++t)
        r.tiers[t].service = spec_.tiers[t].service;
    for (const auto &eng : engines_) {
        r.rootsDone += eng->rootsDone();
        r.rootsShed += eng->rootsShed();
        r.wireMessages += eng->wireSent();
        for (unsigned t = 0; t < spec_.depth(); ++t) {
            r.tiers[t].nodes += eng->tierNodes()[t];
            r.tiers[t].sheds += eng->tierSheds()[t];
            tierHist[t].merge(eng->tierHists()[t]);
        }
        e2e.merge(eng->e2eHist());
        r.maxPeakLiveNodes = std::max<std::uint64_t>(
            r.maxPeakLiveNodes, eng->peakLiveNodes());
        r.maxFootprintBytes =
            std::max(r.maxFootprintBytes, eng->footprintBytes());
    }
    for (unsigned t = 0; t < spec_.depth(); ++t) {
        r.tiers[t].p50Us = tierHist[t].percentile(50.0);
        r.tiers[t].p99Us = tierHist[t].percentile(99.0);
    }
    r.e2eCount = e2e.totalCount();
    r.e2eP50Us = e2e.percentile(50.0);
    r.e2eP99Us = e2e.percentile(99.0);

    // Server-side aggregation: harvesting economics plus the fleet
    // P99 over the merged telemetry latency buckets (in graph mode
    // these carry the end-to-end tree latencies).
    std::vector<std::uint64_t> latencyBuckets;
    for (const auto &res : results) {
        r.batchTasks += res.batchTasksCompleted;
        r.batchThroughput += res.batchThroughput;
        r.coreLoans += res.coreLoans;
        r.coreReclaims += res.coreReclaims;
        r.harvestedCycles += res.telemetry.totals.harvestedCycles();
        r.avgUtilization += res.utilization;
        r.auditsRun += res.auditsRun;
        r.auditViolations += res.auditViolations;
        r.elapsedSec = std::max(r.elapsedSec, res.elapsedSec);
        hh::stats::addBucketCounts(latencyBuckets,
                                   res.telemetry.totals.latencyHist);
    }
    if (!results.empty())
        r.avgUtilization /= static_cast<double>(results.size());
    r.fleetP99Us =
        hh::stats::logBucketPercentile(latencyBuckets, 99.0);
    return r;
}

hh::sim::ThreadPool *
FleetSim::pool(unsigned workers)
{
    const unsigned n = hh::cluster::resolveWorkers(workers, sims_.size());
    if (n <= 1)
        return nullptr;
    if (!pool_ || pool_->workers() != n)
        pool_ = std::make_unique<hh::sim::ThreadPool>(n);
    return pool_.get();
}

bool
FleetSim::save(const std::string &path, std::string *error) const
{
    try {
        std::vector<std::vector<std::uint8_t>> blobs;
        for (const auto &sim : sims_)
            blobs.push_back(hh::cluster::saveServer(*sim));
        return hh::cluster::writeContainer(path, cfg_, seed_, barrier_,
                                           batch_apps_, std::move(blobs),
                                           error);
    } catch (const std::exception &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

bool
FleetSim::resume(const std::string &path, std::string *error)
{
    hh::snap::CheckpointFile f;
    if (!hh::cluster::readContainer(path, cfg_, f, error))
        return false;
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (f.servers != sims_.size())
        return fail("checkpoint holds " + std::to_string(f.servers) +
                    " servers, fleet has " +
                    std::to_string(sims_.size()));
    if (f.seed != seed_)
        return fail("checkpoint seed mismatch");
    for (std::size_t s = 0; s < sims_.size(); ++s) {
        try {
            hh::cluster::loadServer(*sims_[s], std::move(f.blobs[s]));
        } catch (const std::exception &e) {
            return fail("server " + std::to_string(s) + ": " + e.what());
        }
    }
    barrier_ = f.savedAtCycles;
    return true;
}

FleetResults
runFleet(const ServiceGraphSpec &spec,
         const hh::cluster::SystemConfig &cfg, std::uint64_t seed,
         unsigned workers)
{
    FleetSim fleet(spec, cfg, seed);
    fleet.start();
    fleet.advanceWindows(workers);
    return fleet.finish(workers);
}

bool
checkpointFleetAt(const ServiceGraphSpec &spec,
                  const hh::cluster::SystemConfig &cfg,
                  std::uint64_t seed, unsigned workers,
                  hh::sim::Cycles at, const std::string &path,
                  std::string *error)
{
    FleetSim fleet(spec, cfg, seed);
    fleet.start();
    fleet.advanceWindows(workers, at);
    return fleet.save(path, error);
}

std::optional<FleetResults>
resumeFleet(const std::string &path, const ServiceGraphSpec &spec,
            const hh::cluster::SystemConfig &cfg, std::uint64_t seed,
            unsigned workers, std::string *error)
{
    FleetSim fleet(spec, cfg, seed);
    if (!fleet.resume(path, error))
        return std::nullopt;
    fleet.advanceWindows(workers);
    return fleet.finish(workers);
}

} // namespace hh::svc

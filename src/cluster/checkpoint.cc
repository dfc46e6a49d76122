#include "cluster/checkpoint.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "cluster/parallel.h"
#include "sim/log.h"
#include "snapshot/archive.h"
#include "workload/batch.h"

namespace hh::cluster {

namespace {

/** The cluster's batch applications: the first @p servers, in order. */
std::vector<std::string>
clusterBatchApps(unsigned servers)
{
    const auto batch = hh::workload::batchApplications();
    if (servers == 0 || servers > batch.size())
        hh::sim::fatal("cluster checkpoint: servers must be in [1, ",
                       batch.size(), "]");
    std::vector<std::string> apps;
    for (unsigned s = 0; s < servers; ++s)
        apps.push_back(batch[s].name);
    return apps;
}

/** Split the manifest's comma-joined batch application names. */
std::vector<std::string>
splitBatchApps(const std::string &joined)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : joined) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** Build one server per batch application (not yet started). */
std::vector<std::unique_ptr<ServerSim>>
buildSims(const SystemConfig &cfg, const std::vector<std::string> &apps,
          std::uint64_t seed)
{
    std::vector<std::unique_ptr<ServerSim>> sims;
    for (std::size_t s = 0; s < apps.size(); ++s)
        sims.push_back(std::make_unique<ServerSim>(cfg, apps[s], seed + s));
    return sims;
}

bool
anyViolation(std::vector<std::unique_ptr<ServerSim>> &sims)
{
    for (auto &sim : sims) {
        const auto *aud = sim->auditor();
        if (aud && aud->violationCount() > 0)
            return true;
    }
    return false;
}

} // namespace

std::vector<std::uint8_t>
saveServer(ServerSim &sim)
{
    auto ar = hh::snap::Archive::forSave();
    sim.saveState(ar);
    if (!ar.ok())
        throw std::runtime_error("checkpoint save failed: " +
                                 ar.error());
    return ar.take();
}

void
loadServer(ServerSim &sim, std::vector<std::uint8_t> blob)
{
    auto ar = hh::snap::Archive::forLoad(std::move(blob));
    sim.loadState(ar);
    if (!ar.ok())
        throw std::runtime_error("checkpoint load failed: " +
                                 ar.error());
}

bool
writeContainer(const std::string &path, const SystemConfig &cfg,
               std::uint64_t seed, hh::sim::Cycles savedAt,
               const std::vector<std::string> &batchApps,
               std::vector<std::vector<std::uint8_t>> blobs,
               std::string *error)
{
    hh::snap::CheckpointFile f;
    f.configFingerprint = configFingerprint(cfg);
    f.servers = blobs.size();
    f.seed = seed;
    f.savedAtCycles = savedAt;
    for (std::size_t s = 0; s < batchApps.size(); ++s)
        f.batchApps += (s ? "," : "") + batchApps[s];
    f.blobs = std::move(blobs);
    return hh::snap::writeCheckpointFile(path, f, error);
}

bool
readContainer(const std::string &path, const SystemConfig &cfg,
              hh::snap::CheckpointFile &f, std::string *error)
{
    if (!hh::snap::readCheckpointFile(path, f, error))
        return false;
    if (f.configFingerprint != configFingerprint(cfg)) {
        if (error)
            *error = "checkpoint \"" + path + "\" was taken under a "
                     "different SystemConfig or graph topology than "
                     "this run's; resume with the exact configuration "
                     "that saved it";
        return false;
    }
    const auto apps = splitBatchApps(f.batchApps);
    if (apps.size() != f.servers || f.blobs.size() != f.servers) {
        if (error)
            *error = "checkpoint \"" + path +
                     "\" manifest is inconsistent (servers=" +
                     std::to_string(f.servers) + ", apps=" +
                     std::to_string(apps.size()) + ", blobs=" +
                     std::to_string(f.blobs.size()) + ")";
        return false;
    }
    return true;
}

std::string
configFingerprint(const SystemConfig &cfg)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "kind=" << static_cast<int>(cfg.kind)
       << " harvesting=" << cfg.harvesting
       << " harvestOnBlock=" << cfg.harvestOnBlock
       << " adaptiveHarvest=" << cfg.adaptiveHarvest
       << " adaptiveBlockThreshold=" << cfg.adaptiveBlockThreshold
       << " hwEmergencyBuffer=" << cfg.hwEmergencyBuffer
       << " hwSched=" << cfg.hwSched << " hwQueue=" << cfg.hwQueue
       << " hwCtxtSwitch=" << cfg.hwCtxtSwitch
       << " partitioning=" << cfg.partitioning
       << " efficientFlush=" << cfg.efficientFlush
       << " repl=" << static_cast<int>(cfg.repl)
       << " candidateFraction=" << cfg.candidateFraction
       << " harvestWayFraction=" << cfg.harvestWayFraction
       << " swImpl=" << static_cast<int>(cfg.swImpl)
       << " swFlushOnReassign=" << cfg.swFlushOnReassign
       << " swReassignFree=" << cfg.swReassignFree
       << " harvestVmIdle=" << cfg.harvestVmIdle
       << " swCosts=" << cfg.swCosts.kvmDetachAttach << ','
       << cfg.swCosts.kvmVmContextLoad << ','
       << cfg.swCosts.optDetachAttach << ','
       << cfg.swCosts.optVmContextLoad << ','
       << cfg.swCosts.wbinvdMin << ',' << cfg.swCosts.wbinvdMax << ','
       << cfg.swCosts.wbinvdFence << ','
       << cfg.swCosts.processCtxSwitch << ','
       << cfg.swCosts.pollInterval << ',' << cfg.swCosts.queueOp
       << ',' << cfg.swCosts.lockContention
       << " waysFraction=" << cfg.waysFraction
       << " infiniteCaches=" << cfg.infiniteCaches
       << " llcMbPerCore=" << cfg.llcMbPerCore
       << " cores=" << cfg.cores
       << " primaryVms=" << cfg.primaryVms
       << " coresPerPrimary=" << cfg.coresPerPrimary
       << " traceEnabled=" << cfg.traceEnabled
       << " traceCapacity=" << cfg.traceCapacity
       << " metricsEnabled=" << cfg.metricsEnabled
       << " metricsPeriod=" << cfg.metricsPeriod
       << " telemetryEnabled=" << cfg.telemetryEnabled
       << " telemetryPeriod=" << cfg.telemetryPeriod
       << " auditEnabled=" << cfg.auditEnabled
       << " auditPeriod=" << cfg.auditPeriod
       << " auditPanic=" << cfg.auditPanic
       << " auditStopOnViolation=" << cfg.auditStopOnViolation
       << " faults=" << cfg.faults.enabled << ','
       << cfg.faults.meanPeriod << ',' << cfg.faults.startAt << ','
       << cfg.faults.actionsPerTick << ',' << cfg.faults.maxActions
       << ',' << cfg.faults.resurrectLendRace
       << " accessSampling=" << cfg.accessSampling
       << " loadScale=" << cfg.loadScale
       << " requestsPerVm=" << cfg.requestsPerVm
       << " warmupFraction=" << cfg.warmupFraction
       << " burst=" << cfg.burst.enabled << ','
       << cfg.burst.meanInterArrivalSec << ','
       << cfg.burst.meanDurationSec << ',' << cfg.burst.multiplier
       << " seed=" << cfg.seed
       << " policy=" << cfg.policy
       << " policyPeriod=" << cfg.policyPeriod
       << " policyEwmaAlpha=" << cfg.policyEwmaAlpha
       << " policyLendUtil=" << cfg.policyLendUtil
       << " policyHoldUtil=" << cfg.policyHoldUtil
       << " cacheLendEnabled=" << cfg.cacheLendEnabled
       << " cacheLendL2WayFraction=" << cfg.cacheLendL2WayFraction
       << " cacheLendL3Ways=" << cfg.cacheLendL3Ways
       << " cacheLendPeriod=" << cfg.cacheLendPeriod
       << " cacheLendTerm=" << cfg.cacheLendTerm
       << " graphSpec=" << cfg.graphSpec;
    return os.str();
}

bool
checkpointClusterAt(const SystemConfig &cfg, unsigned servers,
                    std::uint64_t seed, unsigned workers,
                    hh::sim::Cycles at, const std::string &path,
                    std::string *error)
{
    const auto apps = clusterBatchApps(servers);
    auto sims = buildSims(cfg, apps, seed);
    try {
        std::vector<std::vector<std::uint8_t>> blobs =
            runParallel<std::vector<std::uint8_t>>(
                servers,
                [&](std::size_t s) {
                    const hh::sim::LogTagScope tag(
                        "server" + std::to_string(s));
                    sims[s]->startRun();
                    sims[s]->advanceRun(at);
                    return saveServer(*sims[s]);
                },
                workers);
        return writeContainer(path, cfg, seed, at, apps,
                              std::move(blobs), error);
    } catch (const std::exception &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

std::optional<ClusterResults>
resumeCluster(const std::string &path, const SystemConfig &cfg,
              unsigned workers, std::string *error)
{
    hh::snap::CheckpointFile f;
    if (!readContainer(path, cfg, f, error))
        return std::nullopt;
    const auto apps = splitBatchApps(f.batchApps);

    const unsigned servers = static_cast<unsigned>(f.servers);
    try {
        std::vector<ServerResults> runs =
            runParallel<ServerResults>(
                servers,
                [&](std::size_t s) {
                    const hh::sim::LogTagScope tag(
                        "server" + std::to_string(s));
                    ServerSim sim(
                        cfg, apps[s],
                        f.seed + static_cast<std::uint64_t>(s));
                    loadServer(sim, std::move(f.blobs[s]));
                    sim.advanceRun(ServerSim::horizon());
                    return sim.finishRun();
                },
                workers);
        return aggregateClusterResults(cfg, servers, std::move(runs));
    } catch (const std::exception &e) {
        if (error)
            *error = e.what();
        return std::nullopt;
    }
}

CheckpointedRun
runClusterCheckpointed(const SystemConfig &cfg, unsigned servers,
                       std::uint64_t seed, unsigned workers,
                       hh::sim::Cycles every, const std::string &path)
{
    if (every == 0)
        hh::sim::fatal("runClusterCheckpointed: checkpoint period "
                       "must be > 0");
    const auto apps = clusterBatchApps(servers);
    auto sims = buildSims(cfg, apps, seed);
    for (auto &sim : sims)
        sim->startRun();

    CheckpointedRun out;
    const hh::sim::Cycles horizon = ServerSim::horizon();

    // The state of the last violation-free epoch; seeded with the
    // post-startRun state so even a first-epoch violation has a
    // clean predecessor to dump.
    std::vector<std::vector<std::uint8_t>> prev_blobs;
    hh::sim::Cycles prev_at = 0;
    for (auto &sim : sims)
        prev_blobs.push_back(saveServer(*sim));

    bool violated = false;
    for (hh::sim::Cycles t = every;; t += every) {
        const hh::sim::Cycles target = std::min(t, horizon);
        runParallel<int>(
            servers,
            [&](std::size_t s) {
                const hh::sim::LogTagScope tag(
                    "server" + std::to_string(s));
                // Never advance a server the auditor stopped: the
                // simulator's stop latch clears when run() returns,
                // and resuming would execute events on a corrupted
                // server.
                const auto *aud = sims[s]->auditor();
                if (cfg.auditStopOnViolation && aud &&
                    aud->violationCount() > 0)
                    return 0;
                sims[s]->advanceRun(target);
                return 0;
            },
            workers);

        const bool now_violated = anyViolation(sims);
        if (now_violated && !violated) {
            violated = true;
            out.preViolationPath = path + ".previolation";
            std::string err;
            if (writeContainer(out.preViolationPath, cfg, seed,
                               prev_at, apps, std::move(prev_blobs),
                               &err)) {
                out.preViolationDumped = true;
            } else {
                hh::sim::warn("runClusterCheckpointed: pre-violation "
                              "dump failed: ", err);
            }
            prev_blobs.clear();
        }

        bool all_done = true;
        for (const auto &sim : sims) {
            const auto *aud = sim->auditor();
            const bool stopped = cfg.auditStopOnViolation && aud &&
                                 aud->violationCount() > 0;
            if (!sim->finished() && !stopped)
                all_done = false;
        }

        if (!now_violated) {
            std::vector<std::vector<std::uint8_t>> blobs;
            for (auto &sim : sims)
                blobs.push_back(saveServer(*sim));
            prev_blobs = blobs; // keep a copy for the dump path
            prev_at = target;
            std::string err;
            if (writeContainer(path, cfg, seed, target, apps,
                               std::move(blobs), &err)) {
                ++out.checkpointsWritten;
            } else {
                hh::sim::warn("runClusterCheckpointed: checkpoint "
                              "write failed: ", err);
            }
        }

        if (all_done || target >= horizon)
            break;
    }

    std::vector<ServerResults> runs = runParallel<ServerResults>(
        servers,
        [&](std::size_t s) {
            const hh::sim::LogTagScope tag("server" +
                                           std::to_string(s));
            // Drain to the horizon before finishing: a plain run does
            // not stop at the epoch boundary when the last request
            // completes — in-flight harvest slices past end_time_
            // still execute (and count). Handlers bail once done_ is
            // set, so this only replays that natural drain. Servers
            // the auditor stopped stay stopped.
            const auto *aud = sims[s]->auditor();
            if (!(cfg.auditStopOnViolation && aud &&
                  aud->violationCount() > 0))
                sims[s]->advanceRun(ServerSim::horizon());
            return sims[s]->finishRun();
        },
        workers);
    out.results =
        aggregateClusterResults(cfg, servers, std::move(runs));
    return out;
}

} // namespace hh::cluster

#include "exp/scheduler.h"

#include <cstdlib>

#include "cluster/checkpoint.h"
#include "cluster/parallel.h"
#include "exp/codec.h"
#include "sim/log.h"

namespace hh::exp {

namespace {

/** May this job's result be memoized? */
bool
cacheableConfig(const hh::cluster::SystemConfig &cfg)
{
    if (cfg.traceEnabled || cfg.metricsEnabled || cfg.auditEnabled ||
        cfg.faults.enabled)
        return false;
    // HH_AUDIT=1 force-enables the auditor inside ServerSim without
    // touching the config (see server.cc); such runs carry audit
    // payloads the codec drops, so they must bypass the cache too.
    const char *audit_env = std::getenv("HH_AUDIT");
    if (audit_env && *audit_env && *audit_env != '0')
        return false;
    return true;
}

} // namespace

JobScheduler::Handle
JobScheduler::intern(Slot &&slot)
{
    ++stats_.submitted;
    const std::string canon = slot.key.canonical();
    const auto it = index_.find(canon);
    std::size_t si;
    if (it != index_.end()) {
        si = it->second;
    } else {
        si = slots_.size();
        slots_.push_back(std::move(slot));
        index_.emplace(canon, si);
        ++stats_.unique;
    }
    handles_.push_back(si);
    return handles_.size() - 1;
}

JobScheduler::Handle
JobScheduler::addServer(const hh::cluster::SystemConfig &cfg,
                        const std::string &batchApp, std::uint64_t seed)
{
    Slot s;
    s.key.kind = "server";
    s.key.fingerprint = hh::cluster::configFingerprint(cfg);
    s.key.app = batchApp;
    s.key.seed = seed;
    s.cfg = cfg;
    s.batchApp = batchApp;
    s.isServer = true;
    s.cacheable = cacheableConfig(cfg);
    return intern(std::move(s));
}

std::vector<JobScheduler::Handle>
JobScheduler::addSpec(const ExperimentSpec &spec)
{
    std::vector<Handle> out;
    for (const ExperimentPoint &p : spec.points())
        out.push_back(addServer(p.cfg, p.batchApp, p.seed));
    return out;
}

JobScheduler::Handle
JobScheduler::addCustom(const std::string &kind, const std::string &key,
                        std::uint64_t seed,
                        std::function<std::string()> fn)
{
    Slot s;
    s.key.kind = kind;
    s.key.fingerprint = key;
    s.key.seed = seed;
    s.fn = std::move(fn);
    s.cacheable = true;
    return intern(std::move(s));
}

void
JobScheduler::run()
{
    // 1. Memoize from the ledger.
    for (Slot &s : slots_) {
        if (s.done || !s.cacheable || !opts_.ledger)
            continue;
        std::string payload;
        if (!opts_.ledger->lookup(s.key, &payload))
            continue;
        if (s.isServer) {
            std::string err;
            if (!decodeServerResults(payload, &s.result, &err))
                hh::sim::fatal("ledger \"", opts_.ledger->path(),
                               "\" row for ", s.key.canonical(),
                               " does not decode (", err,
                               "); delete the ledger to rebuild it");
        } else {
            s.payloadText = payload;
        }
        s.done = true;
        s.fromLedger = true;
        ++stats_.memoized;
    }

    // 2. Run every pending job.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].done)
            pending.push_back(i);
    }
    hh::cluster::runParallel<char>(
        pending.size(),
        [&](std::size_t t) -> char {
            Slot &s = slots_[pending[t]];
            const hh::sim::LogTagScope tag("job" +
                                           std::to_string(pending[t]));
            if (s.isServer)
                s.result =
                    hh::cluster::runServer(s.cfg, s.batchApp, s.key.seed);
            else
                s.payloadText = s.fn();
            return 0;
        },
        opts_.workers);
    stats_.simulated += pending.size();
    for (std::size_t i : pending)
        slots_[i].done = true;

    // 3. Append the new rows, in deterministic slot order, so an
    // interrupted-and-resumed ledger is byte-identical to an
    // uninterrupted one.
    if (opts_.ledger) {
        for (Slot &s : slots_) {
            if (!s.done || !s.cacheable || s.fromLedger)
                continue;
            const std::string payload =
                s.isServer ? encodeServerResults(s.result)
                           : s.payloadText;
            std::string err;
            if (!opts_.ledger->append(s.key, payload, &err))
                hh::sim::fatal("ledger append failed: ", err);
            s.fromLedger = true;
        }
    }
}

const hh::cluster::ServerResults &
JobScheduler::serverResult(Handle h) const
{
    const Slot &s = slots_.at(handles_.at(h));
    if (!s.isServer || !s.done)
        hh::sim::fatal("JobScheduler::serverResult: handle ", h,
                       s.isServer ? " has not run yet"
                                  : " is not a server job");
    return s.result;
}

const std::string &
JobScheduler::payload(Handle h) const
{
    const Slot &s = slots_.at(handles_.at(h));
    if (s.isServer || !s.done)
        hh::sim::fatal("JobScheduler::payload: handle ", h,
                       s.isServer ? " is a server job"
                                  : " has not run yet");
    return s.payloadText;
}

} // namespace hh::exp

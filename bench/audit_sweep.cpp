/**
 * @file
 * Long audit sweep driver for the manual nightly CI job: a full
 * cluster run with the invariant auditor force-enabled, checkpointed
 * periodically so a killed or timed-out sweep resumes from the last
 * checkpoint instead of replaying the whole prefix.
 *
 * Usage:  audit_sweep [--checkpoint-every ms] [--checkpoint-file p]
 *   Scale comes from HH_REQUESTS / HH_SERVERS / HH_SAMPLING /
 *   HH_SEED as in every bench. Exit is nonzero when the auditor
 *   reports a violation; the pre-violation checkpoint written next to
 *   the checkpoint file then reproduces it via load + short replay
 *   (see docs/SNAPSHOT.md).
 */

#include <cstdio>

#include "bench_util.h"

int
main(int argc, char **argv)
{
    using namespace hh::bench;
    using namespace hh::cluster;

    const ObsOptions obs = parseObsArgs(argc, argv, /*checkpointing=*/true);
    const BenchScale scale(/*def_servers=*/8,
                           /*def_requests=*/800);
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    applyScale(cfg, scale);
    cfg.auditEnabled = true;

    const unsigned workers = resolveWorkers(0, scale.servers);
    printHeader("audit_sweep",
                "audit-enabled resumable cluster sweep");
    std::printf("servers=%u requests/VM=%u workers=%u seed=%llu\n",
                scale.servers, scale.requests, workers,
                static_cast<unsigned long long>(scale.seed));

    const ClusterResults res = runClusterResumable(
        cfg, scale.servers, scale.seed, workers, obs);

    std::printf("audits=%llu violations=%llu faults=%llu\n",
                static_cast<unsigned long long>(res.auditsRun),
                static_cast<unsigned long long>(res.auditViolations),
                static_cast<unsigned long long>(res.faultsInjected));
    for (const auto &[srv, v] : res.auditReports)
        std::printf("violation server%u [%s] t=%llu %s\n", srv,
                    v.component.c_str(),
                    static_cast<unsigned long long>(v.time),
                    v.message.c_str());
    if (res.auditViolations != 0) {
        std::fprintf(stderr,
                     "audit sweep found %llu invariant violations\n",
                     static_cast<unsigned long long>(
                         res.auditViolations));
        return 1;
    }
    std::printf("sweep clean\n");
    return 0;
}

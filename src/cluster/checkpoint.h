/**
 * @file
 * Cluster-level checkpoint/restore drivers.
 *
 * Built on the snapshot subsystem (src/snapshot/, docs/SNAPSHOT.md),
 * this layer gives the benches and tests two consumers of
 * deterministic server state:
 *
 *  1. `checkpointClusterAt` / `resumeCluster` — run the cluster to a
 *     chosen simulated time, persist every server to one checkpoint
 *     file, and later resume to completion. The determinism contract
 *     is byte-identity: `run(0 -> end)` and
 *     `run(0 -> T) -> save -> load -> run(T -> end)` produce the same
 *     `ClusterResults::serialized()` text, trace JSON and audit
 *     sections, at any worker count.
 *  2. `runClusterCheckpointed` — a full run that writes a checkpoint
 *     every N cycles (the `--checkpoint-every` flag), keeping the run
 *     resumable after an interruption; on the first invariant
 *     violation it additionally dumps the last violation-free epoch
 *     to `<path>.previolation` for post-mortem replay. The benches
 *     reach it through `runClusterResumable` (bench/bench_util.h).
 */

#ifndef HH_CLUSTER_CHECKPOINT_H
#define HH_CLUSTER_CHECKPOINT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "snapshot/file.h"

namespace hh::cluster {

/**
 * Canonical fingerprint of every SystemConfig field. Two configs
 * fingerprint equal iff a checkpoint taken under one restores
 * correctly under the other; resumeCluster() rejects mismatches with
 * a clear error instead of misinterpreting state.
 */
std::string configFingerprint(const SystemConfig &cfg);

/**
 * Aggregate per-server results into ClusterResults, in server order.
 * Shared by runCluster() and the checkpointed drivers so both paths
 * produce byte-identical serializations.
 */
ClusterResults aggregateClusterResults(const SystemConfig &cfg,
                                       unsigned servers,
                                       std::vector<ServerResults> runs);

/** @name Checkpoint container helpers (cluster and fleet) @{ */
/** Serialize one live server; throws std::runtime_error on failure. */
std::vector<std::uint8_t> saveServer(ServerSim &sim);

/**
 * Restore one freshly constructed server from @p blob; throws
 * std::runtime_error on failure.
 */
void loadServer(ServerSim &sim, std::vector<std::uint8_t> blob);

/**
 * Write one checkpoint file: @p cfg's fingerprint, @p seed, the save
 * time, the per-server batch applications (comma-joined in the
 * manifest) and one blob per server.
 */
bool writeContainer(const std::string &path, const SystemConfig &cfg,
                    std::uint64_t seed, hh::sim::Cycles savedAt,
                    const std::vector<std::string> &batchApps,
                    std::vector<std::vector<std::uint8_t>> blobs,
                    std::string *error);

/**
 * Read the checkpoint file at @p path into @p f and check it against
 * @p cfg: the fingerprint must match and the manifest must name one
 * batch application and hold one blob per server.
 */
bool readContainer(const std::string &path, const SystemConfig &cfg,
                   hh::snap::CheckpointFile &f, std::string *error);
/** @} */

/**
 * Run the cluster from time 0 to simulated time @p at and save every
 * server's state to @p path, then discard the simulations.
 *
 * @return false (with @p error set) on an I/O or serialization
 *         failure — e.g. a live event whose component forgot to tag
 *         it (see docs/SNAPSHOT.md).
 */
bool checkpointClusterAt(const SystemConfig &cfg, unsigned servers,
                         std::uint64_t seed, unsigned workers,
                         hh::sim::Cycles at, const std::string &path,
                         std::string *error = nullptr);

/**
 * Load @p path and run every server to completion.
 *
 * Fails (std::nullopt, @p error set) when the file is unreadable,
 * written by a different format version, or fingerprints to a
 * different SystemConfig than @p cfg; per-server blob corruption and
 * observability mismatches (e.g. restoring without the HH_AUDIT the
 * saving run had) are also reported here.
 */
std::optional<ClusterResults>
resumeCluster(const std::string &path, const SystemConfig &cfg,
              unsigned workers, std::string *error = nullptr);

/** What runClusterCheckpointed() did beyond the results. */
struct CheckpointedRun
{
    ClusterResults results;
    /** Periodic checkpoints written to the main path. */
    unsigned checkpointsWritten = 0;
    /** Set when a violation triggered a pre-violation dump. */
    bool preViolationDumped = false;
    /** The dump's path (`<path>.previolation`) when dumped. */
    std::string preViolationPath;
};

/**
 * Full cluster run that checkpoints all servers to @p path every
 * @p every cycles (overwriting — the file always holds the latest
 * violation-free epoch). When auditing is enabled and a sweep reports
 * the first violation, the previous epoch's state — the last point
 * known violation-free — is written to `<path>.previolation` so the
 * offending window can be replayed with resumeCluster().
 */
CheckpointedRun runClusterCheckpointed(const SystemConfig &cfg,
                                       unsigned servers,
                                       std::uint64_t seed,
                                       unsigned workers,
                                       hh::sim::Cycles every,
                                       const std::string &path);

} // namespace hh::cluster

#endif // HH_CLUSTER_CHECKPOINT_H

/**
 * @file
 * Job scheduler for experiment grids.
 *
 * The scheduler batches simulation jobs from any number of
 * ExperimentSpecs (or hand-built points) and runs them over the
 * ThreadPool with two cost savers in front of the simulator:
 *
 *  1. **Deduplication.** Jobs are keyed by (kind, config
 *     fingerprint, batch app, seed) — the same identity the
 *     checkpoint layer uses — so identical jobs submitted by
 *     different experiments in one process simulate once and share
 *     the result (fig11's five BFS runs are fig17's BFS column).
 *  2. **Memoization.** With a ResultLedger attached, previously
 *     simulated jobs are answered from the ledger; only missing keys
 *     simulate, and their rows are appended for the next run.
 *
 * Jobs with tracing, metric sampling, auditing (including the
 * HH_AUDIT environment override) or fault injection enabled are
 * never deduplicated against clean jobs or memoized: their results
 * carry payloads the ledger codec deliberately excludes.
 */

#ifndef HH_EXP_SCHEDULER_H
#define HH_EXP_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/server.h"
#include "cluster/system_config.h"
#include "exp/ledger.h"
#include "exp/spec.h"

namespace hh::exp {

class JobScheduler
{
  public:
    struct Options
    {
        /** Thread-pool workers; 0 = HH_THREADS or hardware. */
        unsigned workers = 0;
        /** Memoization cache; may be nullptr (no caching). */
        ResultLedger *ledger = nullptr;
    };

    struct Stats
    {
        std::size_t submitted = 0;    //!< add*() calls.
        std::size_t unique = 0;       //!< Jobs after deduplication.
        std::size_t memoized = 0;     //!< Answered from the ledger.
        std::size_t simulated = 0;    //!< Jobs actually run.
        /** Always 0: warm starts are gone; simbench still reads it. */
        std::size_t warmStarted = 0;
    };

    /** Identifies a submitted job; stable across run(). */
    using Handle = std::size_t;

    JobScheduler() : JobScheduler(Options()) {}
    explicit JobScheduler(Options opts) : opts_(std::move(opts)) {}

    /** Submit one ServerSim run. */
    Handle addServer(const hh::cluster::SystemConfig &cfg,
                     const std::string &batchApp, std::uint64_t seed);

    /** Submit every point of an expanded spec; handles in order. */
    std::vector<Handle> addSpec(const ExperimentSpec &spec);

    /**
     * Submit a custom job: @p fn computes a payload string that is
     * deduplicated, memoized and replayed by (kind, key, seed)
     * exactly like server results. @p fn must be deterministic; it
     * runs on a pool thread.
     */
    Handle addCustom(const std::string &kind, const std::string &key,
                     std::uint64_t seed,
                     std::function<std::string()> fn);

    /**
     * Run every pending job. Idempotent per submission batch: jobs
     * added after a run() are executed by the next run(). Fatal on
     * ledger append failures (a broken cache must not go unnoticed).
     */
    void run();

    /** Result of a server job (valid after run()). */
    const hh::cluster::ServerResults &serverResult(Handle h) const;

    /** Payload of a custom job (valid after run()). */
    const std::string &payload(Handle h) const;

    const Stats &stats() const { return stats_; }

  private:
    struct Slot
    {
        JobKey key;
        // Server jobs:
        hh::cluster::SystemConfig cfg;
        std::string batchApp;
        bool isServer = false;
        hh::cluster::ServerResults result;
        // Custom jobs:
        std::function<std::string()> fn;
        std::string payloadText;
        // Scheduling state:
        bool cacheable = false;
        bool done = false;
        bool fromLedger = false;
    };

    Handle intern(Slot &&slot);

    Options opts_;
    Stats stats_;
    std::vector<Slot> slots_;
    std::map<std::string, std::size_t> index_; //!< canonical -> slot
    std::vector<std::size_t> handles_;         //!< handle -> slot
};

} // namespace hh::exp

#endif // HH_EXP_SCHEDULER_H

/**
 * @file
 * Crash-resumable result ledger: an append-only JSONL store of
 * experiment results keyed by (kind, config fingerprint, batch app,
 * seed).
 *
 * The ledger doubles as a cross-run memoization cache: before
 * simulating a job, the JobScheduler looks its key up here and reuses
 * the stored payload (an exact text round-trip of the results — see
 * exp/codec.h), so `bench/repro_all` only re-simulates what changed.
 * Fingerprints cover every SystemConfig field (the same `HHCP`
 * discipline as src/snapshot/ checkpoints), so any config change
 * misses the cache instead of reusing stale results.
 *
 * Durability model: one JSON object per line, CRC-protected,
 * fflush()ed after every append. A run killed mid-append leaves at
 * most one partial trailing line; open() recovers every complete row,
 * truncates the partial tail, and the scheduler re-runs only the
 * missing jobs — producing a file byte-identical to an uninterrupted
 * run (rows append in deterministic job order).
 *
 * The header line records the exact command that created the ledger
 * plus the host's parallelism (hardware threads, pool workers, the
 * single-core flag from BENCH_sim_speed.json's host section), and
 * every row re-stamps the host fields, so multi-seed results from a
 * single-core CI container are never silently compared against
 * multi-core runs.
 */

#ifndef HH_EXP_LEDGER_H
#define HH_EXP_LEDGER_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

namespace hh::exp {

/** Identity of one experiment job. */
struct JobKey
{
    /** Job family: "server" for ServerSim runs, else a custom kind. */
    std::string kind;
    /** configFingerprint() for server jobs; a custom key otherwise. */
    std::string fingerprint;
    /** Batch application (server jobs). */
    std::string app;
    std::uint64_t seed = 0;

    /** Single-string form used for map keys and row checksums. */
    std::string canonical() const;

    bool
    operator==(const JobKey &o) const
    {
        return kind == o.kind && fingerprint == o.fingerprint &&
               app == o.app && seed == o.seed;
    }
};

class ResultLedger
{
  public:
    /** Header metadata, written once when the file is created. */
    struct Meta
    {
        /** Exact command line of the creating run. */
        std::string command;
        unsigned hardwareThreads = 0;
        unsigned poolWorkers = 0;
        bool singleCoreHost = false;
    };

    /**
     * Open (creating if absent) the ledger at @p path.
     *
     * Existing complete rows are loaded into the in-memory index; a
     * partial trailing line (crash mid-append) is counted and
     * truncated away so subsequent appends produce a well-formed
     * file. An existing file keeps its original header; @p meta is
     * only written when the file is created.
     *
     * @return nullptr (and sets @p error) when the file exists but
     *         has a bad header, or on I/O failure.
     */
    static std::unique_ptr<ResultLedger>
    open(const std::string &path, const Meta &meta, std::string *error);

    ~ResultLedger();

    ResultLedger(const ResultLedger &) = delete;
    ResultLedger &operator=(const ResultLedger &) = delete;

    /** Look up a memoized payload; false on a miss. */
    bool lookup(const JobKey &key, std::string *payload) const;

    /**
     * Append one row and flush it to disk. Duplicate keys are
     * rejected (the scheduler deduplicates before running).
     *
     * @return false (and sets @p error) on I/O failure or duplicate.
     */
    bool append(const JobKey &key, const std::string &payload,
                std::string *error);

    /** Rows currently indexed (loaded + appended). */
    std::size_t rows() const { return index_.size(); }

    /** Complete rows recovered from an existing file by open(). */
    std::size_t recoveredRows() const { return recovered_; }

    /** Corrupt/partial trailing rows dropped by open(). */
    std::size_t droppedRows() const { return dropped_; }

    /** Header metadata (the creating run's, for existing files). */
    const Meta &meta() const { return meta_; }

    const std::string &path() const { return path_; }

  private:
    ResultLedger() = default;

    std::string path_;
    Meta meta_;
    std::FILE *file_ = nullptr;
    std::map<std::string, std::string> index_; //!< canonical -> payload
    std::size_t recovered_ = 0;
    std::size_t dropped_ = 0;
};

/**
 * Parse one flat JSON object line into key -> value. String values
 * are unescaped; numbers and booleans are returned as their raw
 * token text. Only the subset the ledger emits is supported.
 */
bool parseJsonLine(const std::string &line,
                   std::map<std::string, std::string> *out);

} // namespace hh::exp

#endif // HH_EXP_LEDGER_H

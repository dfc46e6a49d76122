/**
 * @file
 * Batch (Harvest VM) workload models.
 *
 * Section 5 runs one batch application per server's Harvest VM:
 * GraphBIG (BFS, CC, DC, PRank), FunctionBench ML training (LRTrain,
 * RndFTrain), CloudSuite data analytics (Hadoop) and BioBench
 * bioinformatics (MUMmer). A batch app is an endless supply of tasks
 * (the Harvest VM "always has available work", §4.1.4); throughput is
 * tasks completed per unit time. Each task is compute plus a memory
 * access stream over a large, persistent footprint — so batch
 * performance is sensitive to how much cache capacity the harvest
 * region grants.
 */

#ifndef HH_WORKLOAD_BATCH_H
#define HH_WORKLOAD_BATCH_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "snapshot/archive.h"
#include "workload/address_space.h"

namespace hh::workload {

/**
 * Static description of one batch application.
 */
struct BatchSpec
{
    std::string name;

    /** Mean pure-compute time per task (microseconds). */
    double taskComputeUs = 200.0;

    /** Memory accesses per task. */
    std::uint32_t taskAccesses = 4000;

    /** Footprint in pages (all treated as the app's working set). */
    std::uint32_t codePages = 32;
    std::uint32_t dataPages = 4096;

    /** Fraction of accesses that are instruction fetches. */
    double instrFrac = 0.2;

    /** Zipf skew over data pages; lower = more memory-intensive. */
    double zipfTheta = 0.6;
};

/** The 8 batch applications of the evaluation (§5). */
std::vector<BatchSpec> batchApplications();

/** Look up a batch spec by name; fatal() if unknown. */
BatchSpec batchByName(const std::string &name);

/**
 * One plan-able batch task.
 */
struct BatchTask
{
    hh::sim::Cycles compute = 0;
    std::uint32_t accesses = 0;
};

/**
 * Live batch workload: persistent address space + task generator.
 */
class BatchWorkload
{
  public:
    BatchWorkload(const BatchSpec &spec, std::uint32_t asid,
                  std::uint64_t seed);

    /** Plan the next task. */
    BatchTask planTask();

    /** Draw the next memory access for an executing task. */
    hh::cache::MemAccess nextAccess();

    /**
     * Draw the next out.size() accesses, in order. The run is timed
     * under the "workload.zipf_sample" profile site as one call per
     * Zipf sample.
     */
    void nextAccesses(std::span<hh::cache::MemAccess> out);

    const BatchSpec &spec() const { return spec_; }

    /** Stream position + page watermark; Zipf CDFs are constants. */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(rng_);
        ar.io(space_);
    }

  private:
    BatchSpec spec_;
    AddressSpace space_;
    hh::sim::Rng rng_;
    hh::sim::ZipfSampler data_zipf_;
    hh::sim::ZipfSampler code_zipf_;
};

} // namespace hh::workload

#endif // HH_WORKLOAD_BATCH_H

#include "workload/batch.h"

#include <cmath>

#include "sim/log.h"
#include "sim/prof.h"

namespace hh::workload {

std::vector<BatchSpec>
batchApplications()
{
    // Graph apps have skewed, moderate footprints; the ML training
    // jobs (especially RndFTrain) are memory-intensive and see lower
    // harvested-core benefit (paper §6.6); Hadoop streams.
    std::vector<BatchSpec> v;
    v.push_back({"BFS",       180, 3500, 24,  3072, 0.20, 0.70});
    v.push_back({"CC",        200, 4000, 24,  3072, 0.20, 0.65});
    v.push_back({"DC",        160, 3000, 24,  2048, 0.20, 0.75});
    v.push_back({"PRank",     220, 4500, 24,  4096, 0.20, 0.60});
    v.push_back({"LRTrain",   260, 5000, 32,  6144, 0.15, 0.50});
    v.push_back({"RndFTrain", 300, 6500, 32,  8192, 0.15, 0.35});
    v.push_back({"Hadoop",    240, 5000, 40,  6144, 0.20, 0.45});
    v.push_back({"MUMmer",    210, 4200, 28,  5120, 0.18, 0.55});
    return v;
}

BatchSpec
batchByName(const std::string &name)
{
    for (const auto &b : batchApplications()) {
        if (b.name == name)
            return b;
    }
    hh::sim::fatal("batchByName: unknown batch app '", name, "'");
}

BatchWorkload::BatchWorkload(const BatchSpec &spec, std::uint32_t asid,
                             std::uint64_t seed)
    : spec_(spec), space_(asid, spec.codePages, spec.dataPages),
      rng_(seed, 0xBA7C4ULL + asid),
      data_zipf_(spec.dataPages, spec.zipfTheta),
      code_zipf_(spec.codePages, 0.9)
{
}

BatchTask
BatchWorkload::planTask()
{
    BatchTask t;
    // Modest variability: batch tasks are homogeneous units of work.
    const double us = spec_.taskComputeUs * rng_.uniform(0.85, 1.15);
    t.compute = hh::sim::usToCycles(us);
    t.accesses = spec_.taskAccesses;
    return t;
}

hh::cache::MemAccess
BatchWorkload::nextAccess()
{
    hh::cache::MemAccess a;
    nextAccesses({&a, 1});
    return a;
}

void
BatchWorkload::nextAccesses(std::span<hh::cache::MemAccess> out)
{
    // Every batch access samples one Zipf table: code or data.
    HH_PROF_SCOPE_N(prof, "workload.zipf_sample", out.size());
    for (hh::cache::MemAccess &a : out) {
        a.line = static_cast<std::uint32_t>(
            rng_.uniformInt(hh::cache::kLinesPerPage));
        if (rng_.bernoulli(spec_.instrFrac)) {
            a.isInstr = true;
            a.shared = true;
            a.page = space_.codePage(
                static_cast<std::uint32_t>(code_zipf_.sample(rng_)));
        } else {
            a.isInstr = false;
            // Batch data is long-lived application state: shared
            // across tasks of the same app (Shared=1 in its own VM's
            // terms).
            a.shared = true;
            a.page = space_.sharedDataPage(
                static_cast<std::uint32_t>(data_zipf_.sample(rng_)));
        }
    }
}

} // namespace hh::workload

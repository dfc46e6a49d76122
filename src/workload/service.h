/**
 * @file
 * Microservice specifications and invocation planning.
 *
 * Each of the 8 DeathStarBench-like services is described by a
 * parametric spec: compute time, memory-access count, footprint
 * split into code / shared-data / private pages, blocking-I/O
 * structure (synchronous RPCs to backends), and offered load. An
 * invocation is planned as a sequence of execution segments
 * separated by blocking I/O calls; the core model replays segments
 * against the cache hierarchy.
 */

#ifndef HH_WORKLOAD_SERVICE_H
#define HH_WORKLOAD_SERVICE_H

#include <cstdint>
#include <memory>
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
 * Static description of one microservice.
 */
struct ServiceSpec
{
    std::string name;

    /** Mean pure-compute time per invocation (excl. memory stalls). */
    double computeUs = 150.0;
    /** Coefficient of variation of the compute time (lognormal). */
    double computeCv = 0.25;

    /** Memory accesses replayed per invocation. */
    std::uint32_t memAccesses = 2000;

    /** Footprint in pages. */
    std::uint32_t codePages = 48;
    std::uint32_t sharedDataPages = 128;
    std::uint32_t privatePages = 24;

    /** Fraction of accesses that are instruction fetches. */
    double instrFrac = 0.35;
    /** Of data accesses, fraction that touch shared pages. */
    double sharedFrac = 0.65;
    /** Zipf skew over code and shared-data pages. */
    double zipfTheta = 0.9;

    /** Mean number of blocking I/O (backend RPC) calls. */
    double ioCalls = 1.0;
    /** Mean backend service time per call (profiled, §5). */
    double ioTimeUs = 150.0;

    /** Offered load per Primary-VM core, requests/second (65-250). */
    double rpsPerCore = 150.0;
};

/** The 8 SocialNet services used in the evaluation (§5). */
std::vector<ServiceSpec> deathStarBenchServices();

/** Look up a service spec by name; fatal() if unknown. */
ServiceSpec serviceByName(const std::string &name);

/**
 * One execution segment: compute + memory accesses, optionally
 * terminated by a blocking I/O call.
 */
struct Segment
{
    hh::sim::Cycles compute = 0;      //!< Pure compute cycles.
    std::uint32_t accesses = 0;       //!< Memory accesses to replay.
    bool endsInIo = false;            //!< Blocks on I/O afterwards.
    hh::sim::Cycles ioTime = 0;       //!< Backend time (excl. fabric).

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(compute);
        ar.io(accesses);
        ar.io(endsInIo);
        ar.io(ioTime);
    }
};

/**
 * A fully planned invocation, ready to execute.
 */
struct InvocationPlan
{
    std::vector<Segment> segments;
    std::vector<hh::cache::Addr> privatePages;

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(segments);
        ar.io(privatePages);
    }
};

/**
 * Live workload state of one service instance: its address space and
 * the generators that produce invocation plans and access streams.
 */
class ServiceWorkload
{
  public:
    /**
     * @param spec Service parameters.
     * @param asid Address-space id of the hosting VM.
     * @param seed Experiment seed (per-workload stream derived).
     */
    ServiceWorkload(const ServiceSpec &spec, std::uint32_t asid,
                    std::uint64_t seed);

    /** Plan the segments and private pages of one new invocation. */
    InvocationPlan planInvocation();

    /**
     * Draw the next memory access for an executing invocation.
     *
     * @param plan The invocation being executed (for private pages).
     */
    hh::cache::MemAccess nextAccess(const InvocationPlan &plan);

    /**
     * Draw the next out.size() accesses of @p plan, in order. The run
     * is timed under the "workload.zipf_sample" profile site as one
     * call per Zipf sample.
     */
    void nextAccesses(const InvocationPlan &plan,
                      std::span<hh::cache::MemAccess> out);

    const ServiceSpec &spec() const { return spec_; }
    AddressSpace &addressSpace() { return space_; }

    /**
     * Save/restore the generator stream position and the
     * private-page watermark (the Zipf CDFs are construction-time
     * constants derived from the spec).
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(rng_);
        ar.io(space_);
    }

  private:
    ServiceSpec spec_;
    AddressSpace space_;
    hh::sim::Rng rng_;
    /** Shared across instances with identical (pages, theta): the
     *  CDF + guide are immutable, and a service-graph fleet
     *  replicates the same tier spec on dozens of servers. */
    std::shared_ptr<const hh::sim::ZipfSampler> code_zipf_;
    std::shared_ptr<const hh::sim::ZipfSampler> shared_zipf_;
};

} // namespace hh::workload

#endif // HH_WORKLOAD_SERVICE_H

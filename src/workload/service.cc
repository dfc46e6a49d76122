#include "workload/service.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"
#include "sim/prof.h"

namespace hh::workload {

using hh::sim::Cycles;

std::vector<ServiceSpec>
deathStarBenchServices()
{
    // Parameter mixes chosen so per-service behaviour mirrors the
    // paper's figures: User blocks on I/O frequently, HomeT operates
    // mostly on shared pages, CPost/HomeT are the long services,
    // UrlShort/Text are the short high-rate ones.
    std::vector<ServiceSpec> v;
    v.push_back({"Text",     160, 0.25, 2200,  48,  96, 24,
                 0.35, 0.65, 0.9, 1.0,  70, 250});
    v.push_back({"SGraph",   220, 0.28, 3800,  64, 192, 32,
                 0.35, 0.60, 0.9, 1.0,  60, 150});
    v.push_back({"User",     130, 0.25, 1800,  40,  64, 16,
                 0.35, 0.60, 0.9, 3.0,  85, 200});
    v.push_back({"PstStr",   300, 0.28, 4500,  64, 256, 48,
                 0.35, 0.55, 0.9, 2.0,  90, 100});
    v.push_back({"UsrMnt",   200, 0.25, 2700,  48, 128, 24,
                 0.35, 0.60, 0.9, 1.0,  50, 150});
    v.push_back({"HomeT",    380, 0.25, 6000,  96, 384, 16,
                 0.35, 0.85, 0.9, 2.0, 100, 65});
    v.push_back({"CPost",    420, 0.25, 7500,  96, 320, 64,
                 0.35, 0.55, 0.9, 2.0, 100, 65});
    v.push_back({"UrlShort",  90, 0.20, 1200,  24,  48,  8,
                 0.35, 0.60, 0.9, 1.0,  40, 250});
    return v;
}

ServiceSpec
serviceByName(const std::string &name)
{
    for (const auto &s : deathStarBenchServices()) {
        if (s.name == name)
            return s;
    }
    hh::sim::fatal("serviceByName: unknown service '", name, "'");
}

ServiceWorkload::ServiceWorkload(const ServiceSpec &spec,
                                 std::uint32_t asid, std::uint64_t seed)
    : spec_(spec),
      space_(asid, spec.codePages, spec.sharedDataPages),
      rng_(seed, 0x5E57ULL + asid),
      code_zipf_(hh::sim::sharedZipfSampler(spec.codePages,
                                            spec.zipfTheta)),
      shared_zipf_(hh::sim::sharedZipfSampler(
          std::max<std::uint32_t>(1, spec.sharedDataPages),
          spec.zipfTheta))
{
}

InvocationPlan
ServiceWorkload::planInvocation()
{
    InvocationPlan plan;
    plan.privatePages = space_.allocPrivatePages(spec_.privatePages);

    // Lognormal compute time with the requested CV.
    const double cv = std::max(0.01, spec_.computeCv);
    const double sigma = std::sqrt(std::log(1.0 + cv * cv));
    const double mu = std::log(spec_.computeUs) - 0.5 * sigma * sigma;
    const double total_us = rng_.lognormal(mu, sigma);
    const Cycles total_compute = hh::sim::usToCycles(total_us);

    // Number of blocking calls: Poisson-like around the mean, at
    // least zero. We draw a geometric-ish integer via rounding an
    // exponential for simplicity and determinism.
    std::uint32_t io_calls = 0;
    if (spec_.ioCalls > 0) {
        const double draw = rng_.exponential(spec_.ioCalls);
        io_calls = static_cast<std::uint32_t>(
            std::min(8.0, std::floor(draw + 0.5)));
    }

    const std::uint32_t n_segments = io_calls + 1;
    const Cycles per_seg_compute = total_compute / n_segments;
    const std::uint32_t per_seg_accesses =
        std::max<std::uint32_t>(1, spec_.memAccesses / n_segments);

    for (std::uint32_t i = 0; i < n_segments; ++i) {
        Segment seg;
        seg.compute = per_seg_compute;
        seg.accesses = per_seg_accesses;
        if (i + 1 < n_segments) {
            seg.endsInIo = true;
            seg.ioTime = hh::sim::usToCycles(
                rng_.exponential(spec_.ioTimeUs));
        }
        plan.segments.push_back(seg);
    }
    return plan;
}

hh::cache::MemAccess
ServiceWorkload::nextAccess(const InvocationPlan &plan)
{
    hh::cache::MemAccess a;
    nextAccesses(plan, {&a, 1});
    return a;
}

void
ServiceWorkload::nextAccesses(const InvocationPlan &plan,
                              std::span<hh::cache::MemAccess> out)
{
    HH_PROF_SCOPE_N(prof, "workload.zipf_sample", 0);
    std::uint64_t zipf = 0; // Zipf samples drawn
    for (hh::cache::MemAccess &a : out) {
        a.line = static_cast<std::uint32_t>(
            rng_.uniformInt(hh::cache::kLinesPerPage));

        if (rng_.bernoulli(spec_.instrFrac)) {
            a.isInstr = true;
            a.shared = true;
            a.page = space_.codePage(
                static_cast<std::uint32_t>(code_zipf_->sample(rng_)));
            ++zipf;
            continue;
        }

        a.isInstr = false;
        if (spec_.sharedDataPages > 0 &&
            rng_.bernoulli(spec_.sharedFrac)) {
            a.shared = true;
            a.page = space_.sharedDataPage(
                static_cast<std::uint32_t>(shared_zipf_->sample(rng_)));
            ++zipf;
        } else if (!plan.privatePages.empty()) {
            a.shared = false;
            a.page = plan.privatePages[rng_.uniformInt(
                plan.privatePages.size())];
        } else {
            // Degenerate spec with no private pages: fall back to
            // shared.
            a.shared = true;
            a.page = space_.sharedDataPage(
                static_cast<std::uint32_t>(shared_zipf_->sample(rng_)));
            ++zipf;
        }
    }
    prof.setCalls(zipf);
}

} // namespace hh::workload

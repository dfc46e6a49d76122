/**
 * @file
 * Unit tests for the microservice catalog and invocation planner.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/service.h"

using namespace hh::workload;

TEST(ServiceCatalog, HasTheEightSocialNetServices)
{
    const auto v = deathStarBenchServices();
    ASSERT_EQ(v.size(), 8u);
    const std::set<std::string> expected{"Text",   "SGraph",
                                         "User",   "PstStr",
                                         "UsrMnt", "HomeT",
                                         "CPost",  "UrlShort"};
    std::set<std::string> got;
    for (const auto &s : v)
        got.insert(s.name);
    EXPECT_EQ(got, expected);
}

TEST(ServiceCatalog, LoadsWithinPaperRange)
{
    // §5: 65-250 requests per second per Primary VM core.
    for (const auto &s : deathStarBenchServices()) {
        EXPECT_GE(s.rpsPerCore, 40.0) << s.name;
        EXPECT_LE(s.rpsPerCore, 250.0) << s.name;
    }
}

TEST(ServiceCatalog, ByNameFindsAndRejects)
{
    EXPECT_EQ(serviceByName("HomeT").name, "HomeT");
    EXPECT_THROW(serviceByName("Nope"), std::runtime_error);
}

TEST(ServiceCatalog, UserBlocksMost)
{
    // The paper calls out User as I/O-heavy (§6.1).
    const auto user = serviceByName("User");
    for (const auto &s : deathStarBenchServices())
        EXPECT_LE(s.ioCalls, user.ioCalls) << s.name;
}

TEST(ServiceCatalog, HomeTIsSharedHeavy)
{
    const auto homet = serviceByName("HomeT");
    for (const auto &s : deathStarBenchServices())
        EXPECT_LE(s.sharedFrac, homet.sharedFrac) << s.name;
}

TEST(InvocationPlan, SegmentsMatchIoCalls)
{
    ServiceWorkload wl(serviceByName("Text"), 1, 42);
    for (int i = 0; i < 50; ++i) {
        const auto plan = wl.planInvocation();
        ASSERT_GE(plan.segments.size(), 1u);
        for (std::size_t s = 0; s + 1 < plan.segments.size(); ++s) {
            EXPECT_TRUE(plan.segments[s].endsInIo);
            EXPECT_GT(plan.segments[s].ioTime, 0u);
        }
        EXPECT_FALSE(plan.segments.back().endsInIo);
    }
}

TEST(InvocationPlan, PrivatePagesAllocatedPerInvocation)
{
    const auto spec = serviceByName("PstStr");
    ServiceWorkload wl(spec, 1, 42);
    const auto a = wl.planInvocation();
    const auto b = wl.planInvocation();
    EXPECT_EQ(a.privatePages.size(), spec.privatePages);
    std::set<hh::cache::Addr> all(a.privatePages.begin(),
                                  a.privatePages.end());
    all.insert(b.privatePages.begin(), b.privatePages.end());
    EXPECT_EQ(all.size(), 2u * spec.privatePages);
}

TEST(InvocationPlan, ComputeScalesWithSpec)
{
    ServiceWorkload small(serviceByName("UrlShort"), 1, 7);
    ServiceWorkload big(serviceByName("CPost"), 2, 7);
    double small_sum = 0;
    double big_sum = 0;
    for (int i = 0; i < 200; ++i) {
        for (const auto &seg : small.planInvocation().segments)
            small_sum += static_cast<double>(seg.compute);
        for (const auto &seg : big.planInvocation().segments)
            big_sum += static_cast<double>(seg.compute);
    }
    EXPECT_GT(big_sum, small_sum * 2);
}

TEST(InvocationPlan, MeanComputeNearSpec)
{
    const auto spec = serviceByName("Text");
    ServiceWorkload wl(spec, 1, 11);
    double total_us = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        hh::sim::Cycles c = 0;
        for (const auto &seg : wl.planInvocation().segments)
            c += seg.compute;
        total_us += hh::sim::cyclesToUs(c);
    }
    EXPECT_NEAR(total_us / n, spec.computeUs,
                spec.computeUs * 0.1);
}

TEST(AccessStream, PagesBelongToTheService)
{
    const auto spec = serviceByName("SGraph");
    ServiceWorkload wl(spec, 5, 42);
    const auto plan = wl.planInvocation();
    auto &space = wl.addressSpace();
    std::set<hh::cache::Addr> valid;
    for (std::uint32_t i = 0; i < spec.codePages; ++i)
        valid.insert(space.codePage(i));
    for (std::uint32_t i = 0; i < spec.sharedDataPages; ++i)
        valid.insert(space.sharedDataPage(i));
    valid.insert(plan.privatePages.begin(), plan.privatePages.end());

    for (int i = 0; i < 2000; ++i) {
        const auto a = wl.nextAccess(plan);
        EXPECT_TRUE(valid.count(a.page)) << "stray page";
        EXPECT_LT(a.line, hh::cache::kLinesPerPage);
    }
}

TEST(AccessStream, SharedBitConsistent)
{
    const auto spec = serviceByName("Text");
    ServiceWorkload wl(spec, 1, 42);
    const auto plan = wl.planInvocation();
    const std::set<hh::cache::Addr> priv(plan.privatePages.begin(),
                                         plan.privatePages.end());
    for (int i = 0; i < 2000; ++i) {
        const auto a = wl.nextAccess(plan);
        if (a.isInstr) {
            EXPECT_TRUE(a.shared);
        }
        if (priv.count(a.page)) {
            EXPECT_FALSE(a.shared);
        } else {
            EXPECT_TRUE(a.shared);
        }
    }
}

TEST(AccessStream, InstructionFractionRoughlyMatches)
{
    const auto spec = serviceByName("UsrMnt");
    ServiceWorkload wl(spec, 1, 42);
    const auto plan = wl.planInvocation();
    int instr = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        instr += wl.nextAccess(plan).isInstr ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(instr) / n, spec.instrFrac, 0.02);
}

TEST(ServiceWorkload, DeterministicAcrossInstances)
{
    ServiceWorkload a(serviceByName("Text"), 1, 42);
    ServiceWorkload b(serviceByName("Text"), 1, 42);
    const auto pa = a.planInvocation();
    const auto pb = b.planInvocation();
    ASSERT_EQ(pa.segments.size(), pb.segments.size());
    for (std::size_t i = 0; i < pa.segments.size(); ++i) {
        EXPECT_EQ(pa.segments[i].compute, pb.segments[i].compute);
        EXPECT_EQ(pa.segments[i].ioTime, pb.segments[i].ioTime);
    }
}

/**
 * @file
 * Tests for the cache arrays' host memory: the ColumnArena mapping
 * (huge-page alignment, line-aligned takes, exact capacity) and a
 * server's arena, which must be sized to exactly the arrays it builds
 * for every server shape and cache configuration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/column_arena.h"
#include "cache/repl_lru.h"
#include "cache/set_assoc.h"
#include "cluster/server.h"
#include "sim/thread_pool.h"
#include "workload/service.h"

using hh::cache::ColumnArena;
using hh::cache::Geometry;
using hh::cache::SetAssocArray;
using hh::cluster::ServerSim;
using hh::cluster::SystemConfig;
using hh::cluster::SystemKind;

namespace {

std::uintptr_t
addr(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p);
}

} // namespace

TEST(ColumnArena, HugeArenasStartOnHugePages)
{
    for (std::size_t cap : {ColumnArena::kHugePage,
                            ColumnArena::kHugePage + 100,
                            5 * ColumnArena::kHugePage + 4096}) {
        ColumnArena a(cap);
        EXPECT_EQ(addr(a.base()) % ColumnArena::kHugePage, 0u) << cap;
        // The whole capacity is mapped and writable.
        auto *p = static_cast<char *>(a.take(a.capacity()));
        p[0] = 1;
        p[a.capacity() - 1] = 1;
    }
    // Below a huge page the arena is a plain page-aligned mapping.
    ColumnArena small(3000);
    EXPECT_EQ(addr(small.base()) % 4096, 0u);
}

TEST(ColumnArena, TakesAreLineAlignedAndInOrder)
{
    ColumnArena a(4096);
    const char *base = static_cast<const char *>(a.base());
    std::size_t at = 0;
    for (std::size_t n : {1u, 63u, 64u, 65u, 200u, 8u}) {
        const void *p = a.take(n);
        EXPECT_EQ(addr(p) % ColumnArena::kLine, 0u) << n;
        EXPECT_EQ(p, base + at) << n;
        at += (n + 63) / 64 * 64;
        EXPECT_EQ(a.used(), at);
    }
}

TEST(ColumnArena, ExactCapacityThenFails)
{
    for (std::size_t cap : {std::size_t{1000}, 3 * ColumnArena::kHugePage}) {
        ColumnArena a(cap);
        EXPECT_EQ(a.capacity(), (cap + 63) / 64 * 64);
        a.take(a.capacity() - 64);
        a.take(64);
        EXPECT_EQ(a.used(), a.capacity());
        EXPECT_THROW(a.take(1), std::logic_error) << cap;
    }
    // A take larger than what is left fails without taking anything.
    ColumnArena a(1024);
    a.take(512);
    EXPECT_THROW(a.take(576), std::logic_error);
    EXPECT_EQ(a.used(), 512u);
    a.take(512);
}

TEST(ColumnArena, ArraysCarveTheirColumnsInOrder)
{
    // A 3-set 5-way array's columns: 15 tags (120 bytes, padded to
    // 128) and three 5-word rows (120 bytes, padded to 128).
    const Geometry g{3, 5, 1};
    const auto cols = ColumnArena::bytesFor(g);
    EXPECT_EQ(cols.tags, 128u);
    EXPECT_EQ(cols.rows, 128u);
    EXPECT_EQ(SetAssocArray::rowWords(5), 5u);

    const Geometry big{64, 12, 1};
    ColumnArena arena(cols.total() + ColumnArena::bytesFor(big).total());
    const char *base = static_cast<const char *>(arena.base());
    SetAssocArray a(g, std::make_unique<hh::cache::LruPolicy>(), &arena);
    SetAssocArray b(big, std::make_unique<hh::cache::LruPolicy>(),
                    &arena);
    EXPECT_EQ(arena.used(), arena.capacity());
    EXPECT_EQ(static_cast<const void *>(a.tagRow(0).data()), base);
    EXPECT_EQ(static_cast<const void *>(a.metadataRow(0).data()),
              base + cols.tags);
    EXPECT_EQ(static_cast<const void *>(b.tagRow(0).data()),
              base + cols.total());
    // Construction wrote every row: ranks start as the way index.
    for (std::uint32_t s = 0; s < big.sets; ++s)
        for (unsigned w = 0; w < big.ways; ++w)
            ASSERT_EQ(b.wayState(s, w).rank, w) << s;
    a.access(7, true);
    b.access(7, true);
    EXPECT_TRUE(a.probe(7));
    EXPECT_TRUE(b.probe(7));
}

// ---------------------------------------------------------- servers

namespace {

/** The server's arena holds exactly what its arrays took. */
void
expectSizedExactly(const SystemConfig &cfg,
                   const hh::cluster::GraphServerPlan &plan = {})
{
    ServerSim sim(cfg, "BFS", plan, 1);
    const ColumnArena &a = sim.columnArena();
    EXPECT_GT(a.capacity(), 0u);
    EXPECT_EQ(a.used(), a.capacity())
        << cfg.waysFraction << " ways, " << cfg.llcMbPerCore << " MB";
}

} // namespace

TEST(ServerArena, SizedExactly)
{
    for (SystemKind kind :
         {SystemKind::HardHarvestBlock, SystemKind::NoHarvest,
          SystemKind::HarvestTerm}) {
        for (double ways : {1.0, 0.75, 0.5, 0.25}) {
            SystemConfig cfg = hh::cluster::makeSystem(kind);
            cfg.waysFraction = ways;
            expectSizedExactly(cfg);
        }
        // 1.5 and 2.5 MB per core give non-power-of-two L3 set counts.
        for (double mb : {0.5, 1.5, 2.5}) {
            SystemConfig cfg = hh::cluster::makeSystem(kind);
            cfg.llcMbPerCore = mb;
            expectSizedExactly(cfg);
        }
        SystemConfig infinite = hh::cluster::makeSystem(kind);
        infinite.infiniteCaches = true;
        expectSizedExactly(infinite);
    }
    SystemConfig lease =
        hh::cluster::makeSystem(SystemKind::HardHarvestBlock);
    lease.cacheLendEnabled = true;
    expectSizedExactly(lease);

    // A smaller, uneven server shape.
    SystemConfig shape =
        hh::cluster::makeSystem(SystemKind::HardHarvestBlock);
    shape.cores = 10;
    shape.primaryVms = 3;
    shape.coresPerPrimary = 3;
    shape.llcMbPerCore = 1.5;
    expectSizedExactly(shape);

    // A service-graph fleet server: used, front and idle slots.
    SystemConfig graph =
        hh::cluster::makeSystem(SystemKind::HardHarvestBlock);
    hh::cluster::GraphServerPlan plan;
    plan.enabled = true;
    const auto services = hh::workload::deathStarBenchServices();
    for (unsigned v = 0; v < graph.primaryVms; ++v) {
        hh::cluster::GraphVmPlan gp;
        gp.used = v % 3 != 2;
        gp.front = v == 0;
        gp.tier = v % 3;
        gp.service = services[v % services.size()].name;
        plan.vms.push_back(gp);
    }
    expectSizedExactly(graph, plan);
}

TEST(ServerArena, TableOneServerTakesNineteenMegabytes)
{
    // Per core: L1D 6144 + 3584, L1I 4096 + 2560, L2 65536 + 40960,
    // L1 TLB 1024 + 1280, L2 TLB 16384 + 10240 bytes of tags + rows;
    // plus 2048 sets of 16-way L3 (262144 + 114688 bytes) per core.
    ServerSim sim(hh::cluster::makeSystem(SystemKind::HardHarvestBlock),
                  "BFS", 1);
    EXPECT_EQ(sim.columnArena().capacity(),
              36u * (151808u + 376832u));
    EXPECT_EQ(addr(sim.columnArena().base()) % ColumnArena::kHugePage,
              0u);
}

TEST(ServerArena, PoolThreadsBuildServersConcurrently)
{
    // Each worker maps, fills and unmaps its own server's arena.
    hh::sim::ThreadPool pool(4);
    std::vector<std::size_t> used(8), capacity(8);
    for (unsigned i = 0; i < used.size(); ++i) {
        pool.submit([i, &used, &capacity] {
            SystemConfig cfg =
                hh::cluster::makeSystem(SystemKind::HardHarvestBlock);
            cfg.llcMbPerCore = i % 2 ? 1.5 : 2.0;
            ServerSim sim(cfg, "BFS", i + 1);
            used[i] = sim.columnArena().used();
            capacity[i] = sim.columnArena().capacity();
        });
    }
    pool.wait();
    for (unsigned i = 0; i < used.size(); ++i) {
        EXPECT_EQ(used[i], capacity[i]) << i;
        EXPECT_EQ(capacity[i], capacity[i % 2]) << i;
    }
}

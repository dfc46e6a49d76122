/**
 * @file
 * Service-graph subsystem tests (src/svc/): spec parsing and
 * validation, multi-hop packet snapshot round-trips, fleet smoke
 * runs, worker-count bit-identity, mid-tree checkpoint-resume with
 * live RPC trees and in-flight wire packets, tree-drain edge cases
 * (zero-fanout leaves, same-server loopback, saturated back tiers),
 * Zipf-table sharing across identical service instances, and the
 * RPC engine's pinned snapshot encoding of its live nodes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/server.h"
#include "cluster/system_config.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "snapshot/archive.h"
#include "svc/fleet.h"
#include "svc/graph_spec.h"
#include "svc/rpc_engine.h"
#include "workload/service.h"

using namespace hh::svc;
using hh::cluster::SystemConfig;
using hh::cluster::SystemKind;

namespace {

/** Reduced server shape + budget so fleet tests stay fast. */
SystemConfig
quickConfig()
{
    SystemConfig cfg =
        hh::cluster::makeSystem(SystemKind::HardHarvestBlock);
    cfg.cores = 18;
    cfg.primaryVms = 4;
    cfg.coresPerPrimary = 4;
    cfg.requestsPerVm = 10;
    cfg.accessSampling = 32;
    return cfg;
}

/** depth-2 graph over 4 servers: front on 0..1, back on 2..3. */
ServiceGraphSpec
twoTierSpec()
{
    ServiceGraphSpec spec;
    spec.name = "t2";
    spec.servers = 4;
    spec.tiers.push_back({"Text", 2, true, 0, 1, 2});
    spec.tiers.push_back({"User", 0, true, 2, 3, 2});
    return spec;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** Total expected roots: front VMs x per-VM budget. */
std::uint64_t
expectedRoots(const ServiceGraphSpec &spec, const SystemConfig &cfg)
{
    const TierSpec &front = spec.tiers[0];
    const std::uint64_t vms =
        static_cast<std::uint64_t>(front.serverHi - front.serverLo +
                                   1) *
        front.vmsPerServer;
    return vms * cfg.requestsPerVm;
}

/** One server of a single-tier leaf graph with its RPC engine,
 *  wired as FleetSim wires each of its servers. */
struct LeafEngine
{
    std::unique_ptr<hh::cluster::ServerSim> sim;
    std::unique_ptr<RpcEngine> engine;

    LeafEngine()
    {
        ServiceGraphSpec spec;
        spec.name = "leaf";
        spec.servers = 1;
        spec.tiers.push_back({"UrlShort", 0, true, 0, 0, 2});
        SystemConfig cfg = quickConfig();
        cfg.graphSpec = spec.canonicalText();
        const GraphPlacement placement =
            buildGraphPlacement(spec, cfg, 1);
        sim = std::make_unique<hh::cluster::ServerSim>(
            cfg, "BFS", placement.plans[0], 1);
        engine = std::make_unique<RpcEngine>(spec, placement.routing, 0,
                                             *sim, cfg);
        sim->setGraphHooks(engine.get());
    }
};

} // namespace

TEST(GraphSpec, CanonicalTextRoundTrips)
{
    const ServiceGraphSpec spec = makeLayeredGraphSpec(3, 2, 16);
    ServiceGraphSpec parsed;
    std::string err;
    ASSERT_TRUE(parseGraphSpec(spec.canonicalText(), &parsed, &err))
        << err;
    EXPECT_EQ(spec.canonicalText(), parsed.canonicalText());
    EXPECT_EQ(parsed.depth(), 3u);
    EXPECT_EQ(parsed.servers, 16u);
    EXPECT_EQ(parsed.tiers[0].fanout, 2u);
    EXPECT_EQ(parsed.tiers[2].fanout, 0u);
}

TEST(GraphSpec, ParseErrorsCarryLineNumbers)
{
    ServiceGraphSpec spec;
    std::string err;
    EXPECT_FALSE(parseGraphSpec("graph.servers = x\n", &spec, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    EXPECT_FALSE(parseGraphSpec(
        "graph.servers = 2\ntier0.mode = sideways\n", &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("sync or async"), std::string::npos) << err;

    EXPECT_FALSE(
        parseGraphSpec("graph.servers = 2\nbogus.key = 1\n", &spec,
                       &err));
    EXPECT_NE(err.find("unknown key"), std::string::npos) << err;

    // A sign or a value past 32 bits is a parse error, not a wrapped
    // count.
    const struct
    {
        const char *text;
        const char *line;
    } kWrapped[] = {
        {"graph.servers = 4294967297\n", "line 1"},
        {"graph.servers = -1\n", "line 1"},
        {"graph.servers = 2\ntier0.service = Text\n"
         "tier0.fanout = 4294967296\n",
         "line 3"},
        {"graph.servers = 2\ntier0.vms = -1\n", "line 2"},
    };
    for (const auto &c : kWrapped) {
        EXPECT_FALSE(parseGraphSpec(c.text, &spec, &err)) << c.text;
        EXPECT_NE(err.find(c.line), std::string::npos) << err;
        EXPECT_NE(err.find("invalid unsigned"), std::string::npos)
            << err;
    }
}

TEST(GraphSpec, StructuralValidation)
{
    ServiceGraphSpec spec;
    std::string err;

    // Non-contiguous tier indices.
    EXPECT_FALSE(parseGraphSpec("graph.servers = 2\n"
                                "tier1.service = Text\n",
                                &spec, &err));
    EXPECT_NE(err.find("contiguous"), std::string::npos) << err;

    // Unknown service name.
    EXPECT_FALSE(parseGraphSpec("graph.servers = 1\n"
                                "tier0.service = NoSuchSvc\n"
                                "tier0.servers = 0\n",
                                &spec, &err));
    EXPECT_NE(err.find("unknown service"), std::string::npos) << err;

    // Last tier must not fan out.
    EXPECT_FALSE(parseGraphSpec("graph.servers = 1\n"
                                "tier0.service = Text\n"
                                "tier0.fanout = 2\n"
                                "tier0.servers = 0\n",
                                &spec, &err));
    EXPECT_NE(err.find("fanout 0"), std::string::npos) << err;

    // Server range out of bounds.
    EXPECT_FALSE(parseGraphSpec("graph.servers = 2\n"
                                "tier0.service = Text\n"
                                "tier0.servers = 0..5\n",
                                &spec, &err));
    EXPECT_NE(err.find("range ends"), std::string::npos) << err;
}

TEST(GraphSpec, CapacityValidation)
{
    // 2 tiers x 3 VMs on the same single server > 4 Primary slots.
    ServiceGraphSpec spec;
    spec.servers = 1;
    spec.tiers.push_back({"Text", 1, true, 0, 0, 3});
    spec.tiers.push_back({"User", 0, true, 0, 0, 3});
    std::string err;
    EXPECT_FALSE(validateGraphSpec(spec, 4, &err));
    EXPECT_NE(err.find("Primary slots"), std::string::npos) << err;
    EXPECT_TRUE(validateGraphSpec(spec, 8, &err)) << err;
}

TEST(GraphPacket, WireTagRoundTripsEveryField)
{
    hh::net::Packet p;
    p.kind = hh::net::PacketKind::GraphCall;
    p.dstVm = 7;
    p.requestId = 0;
    p.payloadBytes = 2048;
    p.arrival = 123456789;
    p.srcServer = 513;
    p.srcVm = 3;
    p.nodeRef = 0xDEADBEEFCAFEULL;
    p.salt = 0x123456789ABCDEF0ULL;
    p.tier = 5;

    const auto tag = p.wireTag();
    EXPECT_EQ(tag.kind, hh::snap::SnapTag::kGraphWireArrive);
    const hh::net::Packet q = hh::net::Packet::fromDeliveryTag(tag);
    EXPECT_EQ(q.kind, p.kind);
    EXPECT_EQ(q.dstVm, p.dstVm);
    EXPECT_EQ(q.requestId, p.requestId);
    EXPECT_EQ(q.payloadBytes, p.payloadBytes);
    EXPECT_EQ(q.arrival, p.arrival);
    EXPECT_EQ(q.srcServer, p.srcServer);
    EXPECT_EQ(q.srcVm, p.srcVm);
    EXPECT_EQ(q.nodeRef, p.nodeRef);
    EXPECT_EQ(q.salt, p.salt);
    EXPECT_EQ(q.tier, p.tier);

    p.kind = hh::net::PacketKind::GraphDone;
    const hh::net::Packet r =
        hh::net::Packet::fromDeliveryTag(p.deliveryTag());
    EXPECT_EQ(r.kind, hh::net::PacketKind::GraphDone);
    EXPECT_EQ(r.tier, p.tier);
}

TEST(ZipfSharing, IdenticalParamsShareOneTable)
{
    const auto a = hh::sim::sharedZipfSampler(4096, 0.9);
    const auto b = hh::sim::sharedZipfSampler(4096, 0.9);
    const auto c = hh::sim::sharedZipfSampler(4096, 0.95);
    const auto d = hh::sim::sharedZipfSampler(2048, 0.9);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a.get(), d.get());

    // Shared tables still sample correctly from independent streams.
    hh::sim::Rng rng(7, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(a->sample(rng), 4096u);
}

TEST(Fleet, TwoTierSmokeDrainsAndAccounts)
{
    const ServiceGraphSpec spec = twoTierSpec();
    const SystemConfig cfg = quickConfig();
    const FleetResults r = runFleet(spec, cfg, 1, 2);

    EXPECT_EQ(r.rootsDone + r.rootsShed, expectedRoots(spec, cfg));
    EXPECT_GT(r.rootsDone, 0u);
    ASSERT_EQ(r.tiers.size(), 2u);
    // Every admitted root finished; each issued exactly 2 children,
    // all of which were handled (finished or accounted as shed).
    EXPECT_EQ(r.tiers[0].nodes, r.rootsDone);
    EXPECT_EQ(r.tiers[1].nodes + r.tiers[1].sheds,
              2 * r.tiers[0].nodes);
    EXPECT_GT(r.e2eCount, 0u);
    EXPECT_GT(r.e2eP99Us, 0.0);
    EXPECT_GE(r.e2eP99Us, r.e2eP50Us);
    EXPECT_GT(r.fleetP99Us, 0.0);
    // Front and back tiers are on different servers, so child calls
    // and their completions crossed the fabric.
    EXPECT_GT(r.wireMessages, 0u);
    EXPECT_GT(r.windows, 0u);
    EXPECT_GT(r.maxPeakLiveNodes, 0u);
    EXPECT_GT(r.maxFootprintBytes, 0u);
}

TEST(Fleet, BitIdenticalAcrossWorkerCounts)
{
    const ServiceGraphSpec spec = twoTierSpec();
    const SystemConfig cfg = quickConfig();
    const std::string s1 = runFleet(spec, cfg, 1, 1).serialized();
    const std::string s2 = runFleet(spec, cfg, 1, 2).serialized();
    const std::string s4 = runFleet(spec, cfg, 1, 4).serialized();
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);
}

TEST(Fleet, MidTreeCheckpointResumeIsByteIdentical)
{
    const ServiceGraphSpec spec = twoTierSpec();
    SystemConfig cfg = quickConfig();
    // Audit the engine invariants through the resumed run too —
    // restored trees must still match the server's request states.
    cfg.auditEnabled = true;
    cfg.auditPeriod = 1024;

    const FleetResults full = runFleet(spec, cfg, 1, 1);
    EXPECT_EQ(full.auditViolations, 0u);

    // Advance window by window until trees are provably mid-flight,
    // then save: live nodes on the servers plus (with distinct front
    // and back server ranges) wire packets captured as
    // kGraphWireArrive events in destination queues.
    FleetSim fleet(spec, cfg, 1);
    fleet.start();
    while (!fleet.drained() && fleet.totalLiveNodes() == 0)
        fleet.advanceWindows(1, fleet.barrier() + 1);
    ASSERT_FALSE(fleet.drained());
    ASSERT_GT(fleet.totalLiveNodes(), 0u);

    const std::string path = tmpPath("fleet_midtree.hhcp");
    std::string err;
    ASSERT_TRUE(fleet.save(path, &err)) << err;

    const auto resumed = resumeFleet(path, spec, cfg, 1, 2, &err);
    ASSERT_TRUE(resumed.has_value()) << err;
    EXPECT_EQ(full.serialized(), resumed->serialized());
    EXPECT_EQ(resumed->auditViolations, 0u);
    EXPECT_GT(resumed->auditsRun, 0u);
}

TEST(Fleet, ResumeRejectsDifferentTopology)
{
    const ServiceGraphSpec spec = twoTierSpec();
    const SystemConfig cfg = quickConfig();
    const std::string path = tmpPath("fleet_topology.hhcp");
    std::string err;
    ASSERT_TRUE(checkpointFleetAt(spec, cfg, 1, 2,
                                  hh::sim::usToCycles(200), path,
                                  &err))
        << err;

    // Same servers and config, different wiring: fanout 1.
    ServiceGraphSpec other = spec;
    other.tiers[0].fanout = 1;
    const auto res = resumeFleet(path, other, cfg, 1, 2, &err);
    EXPECT_FALSE(res.has_value());
    EXPECT_NE(err.find("topology"), std::string::npos) << err;
}

TEST(Fleet, ZeroFanoutLeafGraphDrains)
{
    // Single-tier graph: every root is a leaf; no RPCs at all.
    ServiceGraphSpec spec;
    spec.name = "leaf";
    spec.servers = 2;
    spec.tiers.push_back({"UrlShort", 0, true, 0, 1, 2});
    const SystemConfig cfg = quickConfig();
    const FleetResults r = runFleet(spec, cfg, 1, 2);

    EXPECT_EQ(r.rootsDone + r.rootsShed, expectedRoots(spec, cfg));
    EXPECT_EQ(r.tiers[0].nodes, r.rootsDone);
    EXPECT_EQ(r.wireMessages, 0u);
    EXPECT_GT(r.e2eCount, 0u);
}

TEST(Fleet, SameServerLoopbackSkipsFabric)
{
    // Both tiers on the single server: children loop back through
    // the local NIC and nothing crosses the fabric.
    ServiceGraphSpec spec;
    spec.name = "loop";
    spec.servers = 1;
    spec.tiers.push_back({"Text", 2, true, 0, 0, 2});
    spec.tiers.push_back({"User", 0, true, 0, 0, 2});
    const SystemConfig cfg = quickConfig();
    const FleetResults r = runFleet(spec, cfg, 1, 1);

    EXPECT_EQ(r.rootsDone + r.rootsShed, expectedRoots(spec, cfg));
    EXPECT_GT(r.rootsDone, 0u);
    EXPECT_EQ(r.wireMessages, 0u);
    EXPECT_EQ(r.tiers[1].nodes + r.tiers[1].sheds,
              2 * r.tiers[0].nodes);
}

TEST(Fleet, SaturatedBackTierShedsAreAccounted)
{
    // Fan out 4 children per root into a single back-tier VM that
    // may hold only 2 live nodes: sheds are inevitable, and every
    // shed must be accounted (never silently dropped) while the
    // trees still drain.
    ServiceGraphSpec spec;
    spec.name = "sat";
    spec.servers = 2;
    spec.maxLiveNodesPerVm = 2;
    spec.tiers.push_back({"UrlShort", 4, true, 0, 0, 2});
    spec.tiers.push_back({"User", 0, true, 1, 1, 1});
    SystemConfig cfg = quickConfig();
    cfg.loadScale = 4.0; // pile arrivals up to force saturation
    const FleetResults r = runFleet(spec, cfg, 1, 2);

    EXPECT_EQ(r.rootsDone + r.rootsShed, expectedRoots(spec, cfg));
    EXPECT_EQ(r.tiers[1].nodes + r.tiers[1].sheds,
              4 * r.tiers[0].nodes);
    EXPECT_GT(r.tiers[1].sheds, 0u);
}

TEST(SnapshotRpcNodes, SavedInAscendingIdOrderWithFixedLayout)
{
    // Roots for requests 5, 2 and 9 become nodes 1, 2 and 3. Finishing
    // request 5's root erases node 1, so a store that moves its last
    // record into the hole now holds node 3 before node 2.
    LeafEngine le;
    le.engine->onRootArrival(0, 5);
    le.engine->onRootArrival(1, 2);
    le.engine->onRootArrival(0, 9);
    le.engine->onComplete(5);
    ASSERT_EQ(le.engine->liveNodes(), 2u);
    EXPECT_EQ(le.engine->peakLiveNodes(), 3u);

    auto save = hh::snap::Archive::forSave();
    le.engine->serialize(save);
    ASSERT_TRUE(save.ok()) << save.error();

    // The section opens with the node count, 71-byte records in id
    // order, the peak, the next node id and the request -> node map.
    auto in = hh::snap::Archive::forLoad(save.take());
    const auto u64 = [&in] {
        std::uint64_t v = ~0ull;
        in.io(v);
        return v;
    };
    const auto u32 = [&in] {
        std::uint32_t v = ~0u;
        in.io(v);
        return v;
    };
    const auto flag = [&in] {
        std::uint8_t v = 0xff;
        in.io(v);
        return v;
    };
    EXPECT_EQ(u64(), 2u);
    const std::uint64_t ids[] = {2, 3};
    const std::uint32_t vms[] = {1, 0};
    const std::uint64_t reqs[] = {2, 9};
    std::uint64_t salts[2] = {};
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(u64(), ids[i]) << "id of record " << i;
        EXPECT_EQ(u32(), vms[i]) << "vm";
        EXPECT_EQ(u32(), 0u) << "tier";
        salts[i] = u64();
        EXPECT_EQ(u32(), RpcNode::kNoParent) << "parentServer";
        EXPECT_EQ(u32(), 0u) << "parentVm";
        EXPECT_EQ(u64(), 0u) << "parentNode";
        EXPECT_EQ(u64(), reqs[i]) << "reqId";
        EXPECT_EQ(u64(), 0u) << "arrival";
        EXPECT_EQ(u64(), 0u) << "blockedAt";
        EXPECT_EQ(u32(), 0u) << "childrenOutstanding";
        EXPECT_EQ(flag(), 0u) << "localDone";
        EXPECT_EQ(flag(), 0u) << "fannedOut";
        EXPECT_EQ(flag(), 0u) << "waiting";
    }
    EXPECT_NE(salts[0], salts[1]);
    EXPECT_EQ(u64(), 3u) << "peak";
    EXPECT_EQ(u64(), 4u) << "next node id";
    EXPECT_EQ(u64(), 2u) << "request map size";
    EXPECT_EQ(u64(), 2u);
    EXPECT_EQ(u64(), 2u);
    EXPECT_EQ(u64(), 9u);
    EXPECT_EQ(u64(), 3u);
    EXPECT_TRUE(in.ok()) << in.error();
}

TEST(SnapshotRpcNodes, CorruptNodeCountFailsTheLoad)
{
    LeafEngine a;
    a.engine->onRootArrival(0, 1);
    auto save = hh::snap::Archive::forSave();
    a.engine->serialize(save);
    ASSERT_TRUE(save.ok()) << save.error();
    std::vector<std::uint8_t> bytes = save.take();
    const std::uint64_t count = 1000000000;
    std::memcpy(bytes.data(), &count, sizeof count);
    const std::size_t remaining = bytes.size() - sizeof count;

    LeafEngine b;
    auto load = hh::snap::Archive::forLoad(std::move(bytes));
    b.engine->serialize(load);
    EXPECT_FALSE(load.ok());
    EXPECT_EQ(load.error(),
              "snapshot corrupt: container of 1000000000 elements "
              "exceeds " +
                  std::to_string(remaining) + " remaining bytes");
    EXPECT_EQ(b.engine->liveNodes(), 0u);
}

/**
 * @file
 * Unit tests for the snapshot subsystem's component round-trips: Rng
 * position-exactness and stream independence, SubQueue state with
 * overflow pending, a cache hierarchy mid-flush (hidden harvest
 * ways), a full server saved while a lend/reclaim race is in flight
 * (the historical race state), the event queue's pinned encoding, the
 * live-request map encoding and the checkpoint manifest's JSON
 * escaping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "sim/event_queue.h"
#include "cluster/server.h"
#include "cluster/system_config.h"
#include "core/rq.h"
#include "cpu/request.h"
#include "sim/rng.h"
#include "snapshot/archive.h"
#include "snapshot/file.h"

using hh::snap::Archive;

namespace {

std::vector<std::uint8_t>
saveRng(hh::sim::Rng &rng)
{
    auto ar = Archive::forSave();
    rng.serialize(ar);
    EXPECT_TRUE(ar.ok());
    return ar.take();
}

void
loadRng(hh::sim::Rng &rng, const std::vector<std::uint8_t> &bytes)
{
    auto ar = Archive::forLoad(bytes);
    rng.serialize(ar);
    EXPECT_TRUE(ar.ok());
}

/** Requests created as ids 5, 2 and 9, with id 5 then erased. */
template <typename Map>
Map
liveRequests()
{
    Map live;
    for (const std::uint64_t id : {5, 2, 9}) {
        hh::cpu::Request r;
        r.id = id;
        r.vm = static_cast<std::uint32_t>(id % 4);
        r.state = hh::cpu::RequestState::Blocked;
        r.arrival = 100 * id;
        r.samplingCarry = -static_cast<std::int32_t>(id);
        live.emplace(id, r);
    }
    live.erase(5);
    return live;
}

} // namespace

TEST(SnapshotRng, RestoreIsPositionExact)
{
    hh::sim::Rng rng(42, 7);
    for (int i = 0; i < 1000; ++i)
        rng.next();

    const auto bytes = saveRng(rng);

    // Reference continuation from the save point.
    std::vector<std::uint64_t> want;
    for (int i = 0; i < 64; ++i)
        want.push_back(rng.next());

    // Restore into a generator with a completely different identity.
    hh::sim::Rng other(999, 123);
    loadRng(other, bytes);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(other.next(), want[i]) << "draw " << i;
}

TEST(SnapshotRng, CachedBoxMullerNormalSurvives)
{
    hh::sim::Rng rng(7, 1);
    // An odd number of normal() draws leaves one cached variate.
    rng.normal();

    const auto bytes = saveRng(rng);
    const double want_n = rng.normal();
    const std::uint64_t want_u = rng.next();

    hh::sim::Rng other(1, 2);
    loadRng(other, bytes);
    EXPECT_EQ(other.normal(), want_n);
    EXPECT_EQ(other.next(), want_u);
}

TEST(SnapshotRng, RestoreDoesNotPerturbOtherStreams)
{
    // Two independent streams of one experiment seed.
    hh::sim::Rng a(5, 1);
    hh::sim::Rng b(5, 2);
    for (int i = 0; i < 10; ++i)
        a.next();

    // b's future draws must be the same whether or not a is
    // saved/restored around them.
    hh::sim::Rng b_ref(5, 2);
    const auto bytes = saveRng(a);
    loadRng(a, bytes);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(b.next(), b_ref.next());

    // And distinct streams stay distinct after a restore.
    hh::sim::Rng c(5, 3);
    EXPECT_NE(a.next(), c.next());
}

TEST(SnapshotRq, OverflowPendingRoundTrip)
{
    // 2 chunks of 4 entries; give the subqueue one chunk so pushing
    // 7 requests leaves 3 waiting in the in-memory overflow subqueue.
    hh::core::RequestQueue rq(2, 4);
    hh::core::SubQueue q(rq);
    const int chunk = rq.allocChunk();
    ASSERT_GE(chunk, 0);
    ASSERT_TRUE(q.addChunk(static_cast<unsigned>(chunk)));
    for (std::uint64_t p = 1; p <= 7; ++p)
        q.enqueue(p);
    // Put one entry in each non-ready state too.
    ASSERT_TRUE(q.dequeue().has_value()); // payload 1 -> running
    ASSERT_TRUE(q.dequeue().has_value()); // payload 2 -> running
    q.markBlocked(2);
    ASSERT_EQ(q.overflowSize(), 3u);

    auto save = Archive::forSave();
    rq.serialize(save);
    q.serialize(save);
    ASSERT_TRUE(save.ok());

    hh::core::RequestQueue rq2(2, 4);
    hh::core::SubQueue q2(rq2);
    auto load = Archive::forLoad(save.take());
    rq2.serialize(load);
    q2.serialize(load);
    ASSERT_TRUE(load.ok());

    EXPECT_EQ(rq2.freeChunks(), rq.freeChunks());
    EXPECT_EQ(q2.rqMap(), q.rqMap());
    EXPECT_EQ(q2.readyEntries(), q.readyEntries());
    EXPECT_EQ(q2.runningEntries(), q.runningEntries());
    EXPECT_EQ(q2.blockedEntries(), q.blockedEntries());
    EXPECT_EQ(q2.overflowEntries(), q.overflowEntries());

    // Both queues must now evolve identically: completing the running
    // request frees a slot and drains the oldest overflow entry.
    q.complete(1);
    q2.complete(1);
    EXPECT_EQ(q2.overflowEntries(), q.overflowEntries());
    EXPECT_EQ(q2.readyEntries(), q.readyEntries());
    while (auto id = q.dequeue()) {
        auto id2 = q2.dequeue();
        ASSERT_TRUE(id2.has_value());
        EXPECT_EQ(*id2, *id);
        q.complete(*id);
        q2.complete(*id2);
    }
    EXPECT_FALSE(q2.dequeue().has_value());
    // Drain the remaining bookkeeping so teardown doesn't count the
    // test's synthetic payloads as leaks.
    q.markReady(2);
    q2.markReady(2);
    while (auto id = q.dequeue()) {
        q.complete(*id);
        auto id2 = q2.dequeue();
        ASSERT_TRUE(id2.has_value());
        q2.complete(*id2);
    }
}

namespace {

hh::cache::HierarchyConfig
partitionedConfig()
{
    hh::cache::HierarchyConfig cfg;
    cfg.l1d = hh::cache::Geometry{8, 4, 5};
    cfg.l1i = hh::cache::Geometry{8, 4, 5};
    cfg.l2 = hh::cache::Geometry{16, 4, 13};
    cfg.l1tlb = hh::cache::Geometry{4, 4, 2};
    cfg.l2tlb = hh::cache::Geometry{8, 4, 12};
    cfg.partitioning = true;
    return cfg;
}

hh::cache::MemAccess
dataAccess(hh::cache::Addr page, std::uint32_t line = 0)
{
    hh::cache::MemAccess a;
    a.page = page;
    a.line = line;
    a.isInstr = false;
    a.shared = true;
    return a;
}

} // namespace

TEST(SnapshotHierarchy, MidFlushHiddenWaysRoundTrip)
{
    using hh::sim::Cycles;
    auto cfg = partitionedConfig();
    hh::cache::CoreHierarchy h(cfg, nullptr, nullptr);

    // Warm a working set, then flush the harvest region with the
    // hiding window still open at save time.
    for (hh::cache::Addr p = 1; p <= 16; ++p)
        h.access(100, dataAccess(p, static_cast<std::uint32_t>(p)));
    const Cycles flush_at = 2000;
    const Cycles bound = 100000;
    h.flushHarvestRegion(flush_at, bound);

    auto save = Archive::forSave();
    h.serialize(save);
    ASSERT_TRUE(save.ok());

    hh::cache::CoreHierarchy h2(cfg, nullptr, nullptr);
    auto load = Archive::forLoad(save.take());
    h2.serialize(load);
    ASSERT_TRUE(load.ok());

    // Identical access streams both inside the hiding window and
    // after it expires must cost identical latencies: the restored
    // hierarchy carries the same contents, replacement state and
    // harvest_visible_at_.
    Cycles t = flush_at + 10;
    for (hh::cache::Addr p = 1; p <= 24; ++p) {
        const auto a =
            dataAccess(p, static_cast<std::uint32_t>(7 * p));
        EXPECT_EQ(h2.access(t, a), h.access(t, a)) << "page " << p;
        t += 50;
    }
    t = flush_at + bound + 10; // window expired
    for (hh::cache::Addr p = 1; p <= 24; ++p) {
        const auto a =
            dataAccess(p, static_cast<std::uint32_t>(3 * p));
        EXPECT_EQ(h2.access(t, a), h.access(t, a)) << "page " << p;
        t += 50;
    }
    EXPECT_EQ(h2.accesses(), h.accesses());
}

TEST(SnapshotServer, RaceStateMidRunRoundTrip)
{
    // The PR-1 regression state: untracked lend completions (the
    // resurrected race) with fault injection stirring reclaims into
    // transitions, auditing on. A snapshot taken mid-run must capture
    // the in-flight lend/reclaim events and replay to the same
    // violations, fault schedule and results.
    hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
        hh::cluster::SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 30;
    cfg.accessSampling = 32;
    cfg.auditEnabled = true;
    cfg.auditPeriod = 64;
    cfg.auditStopOnViolation = true;
    cfg.faults.enabled = true;
    cfg.faults.resurrectLendRace = true;
    cfg.faults.meanPeriod = hh::sim::usToCycles(5);
    cfg.faults.startAt = hh::sim::usToCycles(10);
    cfg.faults.actionsPerTick = 6;

    const hh::sim::Cycles T = hh::sim::usToCycles(60);

    hh::cluster::ServerSim a(cfg, "BFS", 2);
    a.startRun();
    a.advanceRun(T);
    auto save = Archive::forSave();
    a.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    a.advanceRun(hh::cluster::ServerSim::horizon());
    const hh::cluster::ServerResults ra = a.finishRun();

    hh::cluster::ServerSim b(cfg, "BFS", 2);
    auto load = Archive::forLoad(save.take());
    b.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();
    b.advanceRun(hh::cluster::ServerSim::horizon());
    const hh::cluster::ServerResults rb = b.finishRun();

    EXPECT_EQ(rb.auditViolations, ra.auditViolations);
    EXPECT_EQ(rb.auditsRun, ra.auditsRun);
    EXPECT_EQ(rb.faultsInjected, ra.faultsInjected);
    EXPECT_EQ(rb.coreLoans, ra.coreLoans);
    EXPECT_EQ(rb.coreReclaims, ra.coreReclaims);
    EXPECT_EQ(rb.elapsedSec, ra.elapsedSec);
    ASSERT_EQ(rb.services.size(), ra.services.size());
    for (std::size_t i = 0; i < ra.services.size(); ++i) {
        EXPECT_EQ(rb.services[i].count, ra.services[i].count);
        EXPECT_EQ(rb.services[i].p99Ms, ra.services[i].p99Ms);
        EXPECT_EQ(rb.services[i].meanMs, ra.services[i].meanMs);
    }
    ASSERT_EQ(rb.auditReports.size(), ra.auditReports.size());
    for (std::size_t i = 0; i < ra.auditReports.size(); ++i) {
        EXPECT_EQ(rb.auditReports[i].time, ra.auditReports[i].time);
        EXPECT_EQ(rb.auditReports[i].message,
                  ra.auditReports[i].message);
    }
}

TEST(SnapshotServer, ObservabilityMismatchIsRejected)
{
    hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
        hh::cluster::SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.auditEnabled = true;

    hh::cluster::ServerSim a(cfg, "BFS", 3);
    a.startRun();
    a.advanceRun(hh::sim::msToCycles(0.5));
    auto save = Archive::forSave();
    a.saveState(save);
    ASSERT_TRUE(save.ok());

    // Restore into a server without the auditor: clear error, not
    // silent divergence.
    hh::cluster::SystemConfig plain = cfg;
    plain.auditEnabled = false;
    hh::cluster::ServerSim b(plain, "BFS", 3);
    auto load = Archive::forLoad(save.take());
    b.loadState(load);
    EXPECT_FALSE(load.ok());
    EXPECT_NE(load.error().find("observability"), std::string::npos)
        << load.error();
}

namespace {

using PopStream = std::vector<std::pair<hh::sim::Cycles, std::uint64_t>>;

/** Pop @p q empty, pairing each pop's time with the ordinal its
 *  callback appends to @p log. */
PopStream
drainQueue(hh::sim::EventQueue &q, std::vector<std::uint64_t> &log)
{
    PopStream out;
    while (!q.empty()) {
        hh::sim::Cycles when = 0;
        auto cb = q.pop(when);
        cb();
        out.emplace_back(when, log.back());
    }
    return out;
}

/** FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

// The serialized event-queue encoding is part of the 'HHCP' contract.
// A fixed schedule/cancel/pop history must write exactly the pinned
// bytes, and restoring them must pop the same (time, seq) stream as
// the uninterrupted queue. Events land as ties, near, mid and far
// deadlines; tombstones must vanish from the snapshot; the tail
// schedules reuse freed slots, so slot generations and the free-slot
// order are exercised too.
TEST(SnapshotEventQueue, IdenticalHistoryIdenticalBytes)
{
    using hh::snap::SnapTag;
    hh::sim::EventQueue q;
    std::vector<std::uint64_t> log;
    const auto logOrdinal = [&log](std::uint64_t ord) {
        return hh::sim::EventQueue::Callback(
            [&log, ord] { log.push_back(ord); });
    };
    std::vector<hh::sim::EventId> ids;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const hh::sim::Cycles when =
            (i % 4 == 0)   ? 100
            : (i % 4 == 1) ? 100 + i
            : (i % 4 == 2) ? 5000 + 17 * i
                           : (hh::sim::Cycles{1} << 21) + i;
        ids.push_back(q.schedule(
            when, hh::snap::tag(SnapTag::kCoreIdle, i), logOrdinal(i)));
    }
    for (std::size_t i = 0; i < ids.size(); i += 5)
        EXPECT_TRUE(q.cancel(ids[i]));
    hh::sim::Cycles now = 0;
    for (int k = 0; k < 6; ++k) {
        auto cb = q.pop(now);
        cb();
    }
    EXPECT_EQ(now, 100u);
    EXPECT_EQ(log.back(), 28u);
    for (std::uint64_t i = 40; i < 43; ++i) {
        const hh::sim::Cycles delay =
            i == 40 ? 0 : i == 41 ? 300 : hh::sim::Cycles{1} << 23;
        ids.push_back(q.schedule(now + delay,
                                 hh::snap::tag(SnapTag::kCoreIdle, i),
                                 logOrdinal(i)));
    }
    EXPECT_TRUE(q.cancel(ids[41]));

    auto save = Archive::forSave();
    q.serialize(save, nullptr);
    ASSERT_TRUE(save.ok());
    const std::vector<std::uint8_t> bytes = save.take();
    // Captured when two queue implementations still cross-checked
    // each other byte-for-byte; any change here breaks checkpoints.
    EXPECT_EQ(bytes.size(), 2164u);
    EXPECT_EQ(fnv1a(bytes), 0x9014619315a956b1ull);

    std::vector<std::uint64_t> restored_log;
    hh::sim::EventQueue restored;
    auto load = Archive::forLoad(bytes);
    restored.serialize(load, [&restored_log](const SnapTag &tag) {
        const std::uint64_t ord = tag.a;
        return hh::sim::EventQueue::Callback(
            [&restored_log, ord] { restored_log.push_back(ord); });
    });
    ASSERT_TRUE(load.ok()) << load.error();
    EXPECT_EQ(restored.size(), q.size());

    auto resave = Archive::forSave();
    restored.serialize(resave, nullptr);
    EXPECT_EQ(resave.take(), bytes);

    const PopStream want = drainQueue(q, log);
    ASSERT_EQ(want.size(), 28u);
    EXPECT_EQ(want.front(), std::make_pair(hh::sim::Cycles{100},
                                           std::uint64_t{32}));
    EXPECT_EQ(want.back(),
              std::make_pair(hh::sim::Cycles{100} +
                                 (hh::sim::Cycles{1} << 23),
                             std::uint64_t{42}));
    EXPECT_EQ(drainQueue(restored, restored_log), want);
}

// A corrupt event or slab-slot count fails the load cleanly: each is
// checked against the bytes left before anything is sized from it,
// so 2^62 neither throws nor aborts, and 2^27 slots allocate nothing.
TEST(SnapshotEventQueue, CorruptCountsFailTheArchive)
{
    struct Counts
    {
        std::uint64_t events, slots;
    };
    for (Counts c : {Counts{std::uint64_t{1} << 62, 0},
                     Counts{0, std::uint64_t{1} << 62},
                     Counts{0, std::uint64_t{1} << 27},
                     Counts{64, 0}}) {
        auto save = Archive::forSave();
        std::uint32_t section = 0x45565451u; // 'EVTQ'
        save.io(section);
        save.io(c.events);
        if (c.events == 0)
            save.io(c.slots);
        std::uint64_t tail = 0;
        save.io(tail);
        hh::sim::EventQueue q;
        auto load = Archive::forLoad(save.take());
        EXPECT_NO_THROW(q.serialize(load, [](const hh::snap::SnapTag &) {
            return hh::sim::EventQueue::Callback([] {});
        }));
        EXPECT_FALSE(load.ok()) << c.events << " events, " << c.slots
                                << " slots";
        EXPECT_EQ(q.size(), 0u);
    }
}

// A graph name is free text and rides the fingerprint into the
// manifest, so every control character must come out escaped or the
// manifest is not JSON. Quotes, backslashes and newlines keep the
// escapes every existing manifest already has.
TEST(SnapshotRequests, LiveRequestsSaveInAscendingIdOrder)
{
    using Map = std::unordered_map<std::uint64_t, hh::cpu::Request>;
    Map live = liveRequests<Map>();
    auto save = Archive::forSave();
    save.io(live);
    ASSERT_TRUE(save.ok()) << save.error();
    const std::vector<std::uint8_t> bytes = save.take();

    // The count, then each id followed by its record, ids ascending.
    auto want = Archive::forSave();
    std::uint64_t n = 2;
    want.io(n);
    for (std::uint64_t id : {2, 9}) {
        want.io(id);
        live.at(id).serialize(want);
    }
    EXPECT_EQ(bytes, want.take());
    const std::size_t record = (bytes.size() - 8) / 2 - 8;
    const auto u64At = [&bytes](std::size_t at) {
        std::uint64_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof v);
        return v;
    };
    EXPECT_EQ(u64At(0), 2u);
    EXPECT_EQ(u64At(8), 2u);
    EXPECT_EQ(u64At(16), 2u) << "record 2 opens with its id";
    EXPECT_EQ(u64At(16 + record), 9u);
    EXPECT_EQ(u64At(24 + record), 9u) << "record 9 opens with its id";

    Map back;
    auto load = Archive::forLoad(bytes);
    load.io(back);
    ASSERT_TRUE(load.ok()) << load.error();
    EXPECT_TRUE(load.atEnd());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.at(9).arrival, 900u);
    EXPECT_EQ(back.at(2).samplingCarry, -2);
}

TEST(SnapshotRequests, OrderedMapSharesTheEncoding)
{
    using Hashed = std::unordered_map<std::uint64_t, hh::cpu::Request>;
    using Ordered = std::map<std::uint64_t, hh::cpu::Request>;
    Hashed hashed = liveRequests<Hashed>();
    Ordered ordered = liveRequests<Ordered>();
    auto a = Archive::forSave();
    a.io(hashed);
    auto b = Archive::forSave();
    b.io(ordered);
    const std::vector<std::uint8_t> bytes = a.take();
    EXPECT_EQ(bytes, b.take());

    Ordered back;
    auto load = Archive::forLoad(bytes);
    load.io(back);
    ASSERT_TRUE(load.ok()) << load.error();
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.begin()->first, 2u);
    EXPECT_EQ(back.at(9).vm, 1u);
}

TEST(SnapshotManifest, ControlCharactersAreEscaped)
{
    hh::snap::CheckpointFile f;
    f.configFingerprint = "graphSpec=name a\tb\x01 \"q\" c:\\d\ne";
    f.servers = 2;
    f.seed = 7;
    f.savedAtCycles = 42;
    f.batchApps = "BFS,CC";
    EXPECT_EQ(hh::snap::manifestJson(f),
              "{\n"
              "  \"format_version\": " +
                  std::to_string(hh::snap::kFormatVersion) +
                  ",\n"
                  "  \"config_fingerprint\": \"graphSpec=name "
                  "a\\tb\\u0001 \\\"q\\\" c:\\\\d\\ne\",\n"
                  "  \"servers\": 2,\n"
                  "  \"seed\": 7,\n"
                  "  \"saved_at_cycles\": 42,\n"
                  "  \"batch_apps\": \"BFS,CC\"\n"
                  "}\n");
}


/**
 * @file
 * ResultLedger durability tests: header creation, append/lookup,
 * duplicate rejection, reopen recovery, and the crash path — a JSONL
 * file truncated mid-record recovers every complete row, drops the
 * partial tail, and after re-appending the missing rows is
 * byte-identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "exp/ledger.h"
#include "sim/jsonl.h"

using hh::exp::JobKey;
using hh::exp::parseJsonLine;
using hh::exp::ResultLedger;
using hh::sim::fnv1a64;
using hh::sim::jsonEscape;

namespace {

std::string
tmpPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

ResultLedger::Meta
testMeta()
{
    ResultLedger::Meta m;
    m.command = "repro_all --scale quick \"quoted\"";
    m.hardwareThreads = 8;
    m.poolWorkers = 6;
    m.singleCoreHost = false;
    return m;
}

JobKey
rowKey(unsigned i)
{
    JobKey k;
    k.kind = "server";
    k.fingerprint = "fp-" + std::to_string(i);
    k.app = "BFS";
    k.seed = i;
    return k;
}

std::string
rowPayload(unsigned i)
{
    return "payload line one\nline two for row " + std::to_string(i);
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(ExpLedger, CreateWritesParsableHeader)
{
    const std::string path = tmpPath("hh_ledger_header.jsonl");
    std::string err;
    const auto ledger = ResultLedger::open(path, testMeta(), &err);
    ASSERT_NE(ledger, nullptr) << err;
    EXPECT_EQ(ledger->rows(), 0u);
    EXPECT_EQ(ledger->recoveredRows(), 0u);
    EXPECT_EQ(ledger->droppedRows(), 0u);

    const std::string contents = readAll(path);
    const auto nl = contents.find('\n');
    ASSERT_NE(nl, std::string::npos);
    std::map<std::string, std::string> obj;
    ASSERT_TRUE(parseJsonLine(contents.substr(0, nl), &obj));
    EXPECT_EQ(obj["magic"], "HHRL");
    EXPECT_EQ(obj["version"], "1");
    EXPECT_EQ(obj["command"], testMeta().command);
    EXPECT_EQ(obj["hardware_threads"], "8");
    EXPECT_EQ(obj["pool_workers"], "6");
    EXPECT_EQ(obj["single_core_host"], "false");
}

TEST(ExpLedger, AppendLookupAndDuplicateRejection)
{
    const std::string path = tmpPath("hh_ledger_append.jsonl");
    std::string err;
    const auto ledger = ResultLedger::open(path, testMeta(), &err);
    ASSERT_NE(ledger, nullptr) << err;

    ASSERT_TRUE(ledger->append(rowKey(1), rowPayload(1), &err)) << err;
    EXPECT_EQ(ledger->rows(), 1u);

    std::string payload;
    ASSERT_TRUE(ledger->lookup(rowKey(1), &payload));
    EXPECT_EQ(payload, rowPayload(1));
    EXPECT_FALSE(ledger->lookup(rowKey(2), &payload));

    EXPECT_FALSE(ledger->append(rowKey(1), rowPayload(1), &err));
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
    EXPECT_EQ(ledger->rows(), 1u);

    // Every row re-stamps the host fields from the header meta.
    const std::string contents = readAll(path);
    const auto nl = contents.find('\n');
    std::map<std::string, std::string> obj;
    ASSERT_TRUE(parseJsonLine(
        contents.substr(nl + 1,
                        contents.find('\n', nl + 1) - nl - 1),
        &obj));
    EXPECT_EQ(obj["kind"], "server");
    EXPECT_EQ(obj["fp"], "fp-1");
    EXPECT_EQ(obj["seed"], "1");
    EXPECT_EQ(obj["hardware_threads"], "8");
    EXPECT_EQ(obj["pool_workers"], "6");
    EXPECT_EQ(obj["payload"], rowPayload(1));
}

TEST(ExpLedger, ReopenRecoversRowsAndOriginalMeta)
{
    const std::string path = tmpPath("hh_ledger_reopen.jsonl");
    std::string err;
    {
        const auto ledger = ResultLedger::open(path, testMeta(), &err);
        ASSERT_NE(ledger, nullptr) << err;
        for (unsigned i = 1; i <= 3; ++i)
            ASSERT_TRUE(ledger->append(rowKey(i), rowPayload(i), &err))
                << err;
    }

    // Reopen with *different* meta: the original header must win.
    ResultLedger::Meta other;
    other.command = "something else";
    other.hardwareThreads = 1;
    other.poolWorkers = 1;
    other.singleCoreHost = true;
    const auto reopened = ResultLedger::open(path, other, &err);
    ASSERT_NE(reopened, nullptr) << err;
    EXPECT_EQ(reopened->recoveredRows(), 3u);
    EXPECT_EQ(reopened->droppedRows(), 0u);
    EXPECT_EQ(reopened->rows(), 3u);
    EXPECT_EQ(reopened->meta().command, testMeta().command);
    EXPECT_EQ(reopened->meta().hardwareThreads, 8u);

    std::string payload;
    for (unsigned i = 1; i <= 3; ++i) {
        ASSERT_TRUE(reopened->lookup(rowKey(i), &payload));
        EXPECT_EQ(payload, rowPayload(i));
    }
}

TEST(ExpLedger, TruncatedTailRecoversAndResumesByteIdentical)
{
    const std::string path = tmpPath("hh_ledger_crash.jsonl");
    std::string err;
    {
        const auto ledger = ResultLedger::open(path, testMeta(), &err);
        ASSERT_NE(ledger, nullptr) << err;
        for (unsigned i = 1; i <= 5; ++i)
            ASSERT_TRUE(ledger->append(rowKey(i), rowPayload(i), &err))
                << err;
    }
    const std::string full = readAll(path);
    ASSERT_FALSE(full.empty());

    // Simulate a crash mid-append: chop the last row in half.
    const auto last_nl = full.rfind('\n', full.size() - 2);
    ASSERT_NE(last_nl, std::string::npos);
    const std::size_t cut =
        last_nl + 1 + (full.size() - last_nl - 1) / 2;
    writeAll(path, full.substr(0, cut));

    {
        const auto resumed = ResultLedger::open(path, testMeta(), &err);
        ASSERT_NE(resumed, nullptr) << err;
        EXPECT_EQ(resumed->recoveredRows(), 4u);
        EXPECT_EQ(resumed->droppedRows(), 1u);
        std::string payload;
        EXPECT_FALSE(resumed->lookup(rowKey(5), &payload));

        // Re-running only the missing job reproduces the exact file.
        ASSERT_TRUE(resumed->append(rowKey(5), rowPayload(5), &err))
            << err;
    }
    EXPECT_EQ(readAll(path), full);
}

TEST(ExpLedger, CorruptRowInvalidatesEverythingAfterIt)
{
    const std::string path = tmpPath("hh_ledger_corrupt.jsonl");
    std::string err;
    {
        const auto ledger = ResultLedger::open(path, testMeta(), &err);
        ASSERT_NE(ledger, nullptr) << err;
        for (unsigned i = 1; i <= 4; ++i)
            ASSERT_TRUE(ledger->append(rowKey(i), rowPayload(i), &err))
                << err;
    }
    std::string bytes = readAll(path);

    // Flip a payload byte inside row 2 (second line after the
    // header): the row still parses as JSON but fails its CRC, so
    // recovery must stop there — rows 3 and 4 are untrusted.
    const auto header_end = bytes.find('\n');
    const auto row1_end = bytes.find('\n', header_end + 1);
    const auto row2_pos = bytes.find("payload", row1_end);
    ASSERT_NE(row2_pos, std::string::npos);
    bytes[row2_pos] = 'q';
    writeAll(path, bytes);

    const auto resumed = ResultLedger::open(path, testMeta(), &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(resumed->recoveredRows(), 1u);
    EXPECT_EQ(resumed->droppedRows(), 1u);
    std::string payload;
    EXPECT_TRUE(resumed->lookup(rowKey(1), &payload));
    EXPECT_FALSE(resumed->lookup(rowKey(2), &payload));
    EXPECT_FALSE(resumed->lookup(rowKey(3), &payload));
}

TEST(ExpLedger, BadHeaderIsRejected)
{
    const std::string path = tmpPath("hh_ledger_badheader.jsonl");
    writeAll(path, "this is not a ledger\n");
    std::string err;
    EXPECT_EQ(ResultLedger::open(path, testMeta(), &err), nullptr);
    EXPECT_NE(err.find("header"), std::string::npos) << err;

    writeAll(path, "{\"magic\":\"XXXX\",\"version\":1}\n");
    err.clear();
    EXPECT_EQ(ResultLedger::open(path, testMeta(), &err), nullptr);
    EXPECT_NE(err.find("header"), std::string::npos) << err;
}

TEST(ExpLedger, JsonEscapeRoundTripsThroughParser)
{
    const std::string nasty =
        "quote \" backslash \\ newline \n tab \t unit \x1f done";
    std::map<std::string, std::string> obj;
    ASSERT_TRUE(parseJsonLine(
        "{\"k\":\"" + jsonEscape(nasty) + "\",\"n\":42,\"b\":true}",
        &obj));
    EXPECT_EQ(obj["k"], nasty);
    EXPECT_EQ(obj["n"], "42");
    EXPECT_EQ(obj["b"], "true");

    EXPECT_FALSE(parseJsonLine("not json", &obj));
    EXPECT_FALSE(parseJsonLine("{\"k\":}", &obj));
    EXPECT_FALSE(parseJsonLine("{\"k\":1} trailing", &obj));
}

TEST(ExpLedger, ChecksumMatchesFnv1aVectors)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a64("payload-1"), fnv1a64("payload-2"));
}

TEST(ExpLedger, JobKeyCanonicalSeparatesFields)
{
    JobKey a = rowKey(1);
    JobKey b = rowKey(1);
    b.fingerprint = "fp-";
    b.app = "1BFS"; // naive concatenation would collide with a
    EXPECT_NE(a.canonical(), b.canonical());
    EXPECT_EQ(a.canonical(), rowKey(1).canonical());
}

// Tests for the bench telemetry harness: schema fields, stable key
// ordering, deterministic output at a fixed seed, and the output dir.
#include "harness/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/thread_pool.hpp"

namespace dhtlb::bench {
namespace {

std::vector<Record> sample_records() {
  Record a;
  a.experiment = "exp";
  a.cell = "cell/one";
  a.metric = "runtime_factor_mean";
  a.value = 1.25;
  a.seed = 42;
  a.trials = 8;
  Record b = a;
  b.cell = "cell/two";
  b.value = 0.1 + 0.2;  // non-representable sum: %.17g must round-trip
  return {a, b};
}

TEST(ToJson, ContainsEverySchemaField) {
  const std::string json = to_json("exp", sample_records());
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"experiment\": \"exp\""), std::string::npos);
  for (const char* key :
       {"\"cell\"", "\"metric\"", "\"seed\"", "\"trials\"", "\"value\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// The whole schema-2 document, byte for byte: the layout every
// committed baseline and golden is stored in.
TEST(ToJson, SchemaTwoExactBytes) {
  auto records = sample_records();
  records[0].peak_rss_bytes = 4096;
  EXPECT_EQ(to_json("exp", records),
            "{\n"
            "  \"schema_version\": 2,\n"
            "  \"experiment\": \"exp\",\n"
            "  \"records\": [\n"
            "    {\"cell\": \"cell/one\", \"experiment\": \"exp\", "
            "\"metric\": \"runtime_factor_mean\", \"peak_rss_bytes\": 4096, "
            "\"seed\": 42, \"trials\": 8, \"value\": 1.25},\n"
            "    {\"cell\": \"cell/two\", \"experiment\": \"exp\", "
            "\"metric\": \"runtime_factor_mean\", \"seed\": 42, "
            "\"trials\": 8, \"value\": 0.30000000000000004}\n"
            "  ]\n"
            "}\n");
}

TEST(ToJson, KeysInAlphabeticalOrderWithinRecord) {
  const std::string json = to_json("exp", sample_records());
  const char* keys[] = {"\"cell\"", "\"experiment\"", "\"metric\"",
                        "\"seed\"", "\"trials\"",     "\"value\""};
  const std::size_t record_start = json.find("{\"cell\"");
  ASSERT_NE(record_start, std::string::npos);
  std::size_t prev = record_start;
  for (const char* key : keys) {
    const std::size_t pos = json.find(key, record_start);
    ASSERT_NE(pos, std::string::npos) << key;
    EXPECT_GE(pos, prev) << key << " out of order";
    prev = pos;
  }
}

TEST(ToJson, ByteStableAcrossCalls) {
  const auto records = sample_records();
  EXPECT_EQ(to_json("exp", records), to_json("exp", records));
}

TEST(ToJson, RoundTripsDoublesExactly) {
  // %.17g must preserve 0.1 + 0.2 != 0.3 in the serialized text.
  const std::string json = to_json("exp", sample_records());
  EXPECT_NE(json.find("0.30000000000000004"), std::string::npos);
}

TEST(ToJson, EscapesQuotesAndBackslashes) {
  Record r;
  r.experiment = "exp";
  r.cell = "quote\"back\\slash";
  r.metric = "m";
  const std::string json = to_json("exp", {r});
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(ToJson, EmptyRecordsYieldValidSkeleton) {
  const std::string json = to_json("exp", {});
  EXPECT_NE(json.find("\"records\": []"), std::string::npos);
}

TEST(ToJson, PeakRssOmittedWhenZeroAndSortedBetweenMetricAndSeed) {
  // Absent by default: zero-RSS records carry no RSS key.
  const std::string without = to_json("exp", sample_records());
  EXPECT_EQ(without.find("peak_rss_bytes"), std::string::npos);

  auto records = sample_records();
  records[0].peak_rss_bytes = 123456789;
  const std::string with = to_json("exp", records);
  const std::size_t pos = with.find("\"peak_rss_bytes\": 123456789");
  ASSERT_NE(pos, std::string::npos);
  // Alphabetical slot: after "metric", before "seed" in the same record.
  EXPECT_LT(with.find("\"metric\""), pos);
  EXPECT_GT(with.find("\"seed\""), pos);
  // The second record did not measure memory and stays clean.
  EXPECT_EQ(with.find("\"peak_rss_bytes\"", pos + 1), std::string::npos);
}

TEST(Telemetry, CurrentPeakRssIsPlausible) {
  // A running process has touched at least a megabyte and (on any
  // machine this suite targets) well under a terabyte.
  const std::uint64_t rss = Telemetry::current_peak_rss_bytes();
  EXPECT_GE(rss, 1u << 20);
  EXPECT_LT(rss, 1ull << 40);
}

TEST(Telemetry, RecordCapturesSeedAndRss) {
  Telemetry t("unit", 1234, ::testing::TempDir());
  t.record("c", "m", 2.5, 4, /*peak_rss_bytes=*/1 << 20);
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].seed, 1234u);
  EXPECT_EQ(t.records()[0].trials, 4u);
  EXPECT_EQ(t.records()[0].peak_rss_bytes, 1u << 20);
  EXPECT_DOUBLE_EQ(t.records()[0].value, 2.5);
}

// A file holds each (cell, metric) pair once; a repeat is a bench bug
// (it once recorded one tableR cell twice) and names the pair.
TEST(Telemetry, RepeatedCellMetricPairIsRejected) {
  Telemetry t("unit", 7, ::testing::TempDir());
  t.record("a", "m", 1.0, 2);
  t.record("a", "n", 1.0, 2);
  t.record("b", "m", 1.0, 2);
  try {
    t.record("a", "m", 2.0, 2);
    ADD_FAILURE() << "a repeated pair was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "telemetry: unit records cell 'a' metric 'm' twice");
  }
  EXPECT_EQ(t.records().size(), 3u);
}

TEST(Telemetry, IdenticalRunsProduceIdenticalJson) {
  auto run = [] {
    Telemetry t("unit", 7, ::testing::TempDir());
    t.record("a", "m", 1.0, 2);
    t.record("b", "m", 2.0, 2);
    return t.json();
  };
  EXPECT_EQ(run(), run());
}

TEST(Telemetry, FlushWritesFileToBenchDir) {
  {
    Telemetry t("flushtest", 42, ::testing::TempDir());
    t.record("c", "m", 3.0, 1);
    EXPECT_TRUE(t.flush());
  }
  const std::string path = ::testing::TempDir() + "/BENCH_flushtest.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"experiment\": \"flushtest\""),
            std::string::npos);
  EXPECT_NE(buf.str().find("\"value\": 3"), std::string::npos);
  std::remove(path.c_str());
}

// flush() is the only writer: a bench that throws part-way destroys its
// Telemetry unflushed and must leave no partial record set behind.
TEST(Telemetry, DestructionWithoutFlushWritesNothing) {
  const std::string path = ::testing::TempDir() + "/BENCH_unflushed.json";
  std::remove(path.c_str());
  {
    Telemetry t("unflushed", 42, ::testing::TempDir());
    t.record("c", "m", 1.0, 1);
  }
  EXPECT_FALSE(std::ifstream(path).good()) << path;
}

// Telemetry is mutex-guarded (support/sync.hpp) so parallel bench cells
// can record concurrently: the fan must lose no records, and records()
// returns a consistent snapshot.
TEST(Telemetry, ConcurrentRecordsAreAllKept) {
  Telemetry t("unit", 42, ::testing::TempDir());
  constexpr std::size_t kTasks = 8;
  constexpr int kRecordsPerTask = 500;
  support::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    for (int i = 0; i < kRecordsPerTask; ++i) {
      t.record("cell/" + std::to_string(task), std::to_string(i), 1.0, 1);
    }
  });
  EXPECT_EQ(t.records().size(), kTasks * kRecordsPerTask);
}

// The file holds exactly the recorded records: no calibration record
// is prepended.
TEST(Telemetry, FlushWritesOnlyRecordedRecords) {
  std::string expected;
  {
    Telemetry t("caltest", 42, ::testing::TempDir());
    t.record("c", "m", 1.0, 1);
    expected = t.json();
    ASSERT_TRUE(t.flush());
  }
  const std::string path = ::testing::TempDir() + "/BENCH_caltest.json";
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), expected);
  EXPECT_EQ(buf.str().find("__calibration__"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dhtlb::bench

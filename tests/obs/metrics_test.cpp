// MetricsRegistry unit tests: instrument semantics (cumulative counters,
// instantaneous gauges, per-tick histograms), row format, name ordering,
// and byte stability across flush cadences.
#include "obs/metrics.hpp"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/thread_pool.hpp"

namespace dhtlb::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

TEST(MetricsRegistry, GaugeRowHasAlphabeticalKeys) {
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto id = m.gauge("ring_gini", "ratio");
  m.set(id, 0.25);
  m.sample(12);
  m.flush();
  EXPECT_EQ(out.str(),
            "{\"metric\":\"ring_gini\",\"tick\":12,\"type\":\"gauge\","
            "\"unit\":\"ratio\",\"value\":0.25}\n");
}

TEST(MetricsRegistry, CountersAreCumulativeAcrossSamples) {
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto id = m.counter("work_done", "tasks");
  m.add(id, 10.0);
  m.sample(1);
  m.add(id, 5.0);
  m.sample(2);
  m.flush();
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"tick\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"value\":10"), std::string::npos);
  EXPECT_NE(lines[1].find("\"tick\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"value\":15"), std::string::npos);
}

TEST(MetricsRegistry, GaugesHoldTheirLastValue) {
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto id = m.gauge("nodes", "nodes");
  m.set(id, 100.0);
  m.sample(1);
  m.sample(2);  // not re-set: the gauge keeps its value
  m.flush();
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"value\":100"), std::string::npos);
}

TEST(MetricsRegistry, RowsComeOutInNameOrder) {
  std::ostringstream out;
  MetricsRegistry m(out);
  m.set(m.gauge("zeta", "x"), 1.0);
  m.set(m.gauge("alpha", "x"), 2.0);
  m.set(m.gauge("mid", "x"), 3.0);
  m.sample(1);
  m.flush();
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"alpha\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"mid\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"zeta\""), std::string::npos);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto a = m.counter("msgs", "messages");
  const auto b = m.counter("msgs", "messages");
  EXPECT_EQ(a, b);
  EXPECT_NE(m.counter("bytes", "bytes"), a);
  m.sample(1);
  m.flush();
  EXPECT_EQ(lines_of(out.str()).size(), 2u) << "one row per instrument";
}

TEST(MetricsRegistry, HistogramBucketsAreCumulativeWithInfAndSum) {
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto id = m.histogram("workload", "tasks", {1.0, 4.0, 16.0});
  m.observe(id, 0.0);   // <=1, <=4, <=16
  m.observe(id, 3.0);   // <=4, <=16
  m.observe(id, 100.0);  // +inf only
  m.sample(1);
  m.flush();
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);  // 3 bounds + inf + sum
  EXPECT_EQ(lines[0],
            "{\"le\":1,\"metric\":\"workload\",\"tick\":1,"
            "\"type\":\"histogram\",\"unit\":\"tasks\",\"value\":1}");
  EXPECT_NE(lines[1].find("\"le\":4"), std::string::npos);
  EXPECT_NE(lines[1].find("\"value\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"le\":16"), std::string::npos);
  EXPECT_NE(lines[2].find("\"value\":2"), std::string::npos);
  EXPECT_EQ(lines[3],
            "{\"le\":\"+inf\",\"metric\":\"workload\",\"tick\":1,"
            "\"type\":\"histogram\",\"unit\":\"tasks\",\"value\":3}");
  EXPECT_EQ(lines[4],
            "{\"metric\":\"workload_sum\",\"tick\":1,"
            "\"type\":\"histogram\",\"unit\":\"tasks\",\"value\":103}");
}

TEST(MetricsRegistry, HistogramsResetEachSample) {
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto id = m.histogram("workload", "tasks", {10.0});
  m.observe(id, 5.0);
  m.sample(1);
  m.sample(2);  // nothing observed this tick
  m.flush();
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 6u);
  // Tick 2's +inf bucket and sum are back to 0.
  EXPECT_NE(lines[4].find("\"value\":0"), std::string::npos);
  EXPECT_NE(lines[5].find("\"value\":0"), std::string::npos);
}

TEST(MetricsRegistry, SampleFlushesEvery32Calls) {
  // Rows stay buffered until every 32nd sample() writes them through;
  // flush() writes the rest.
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto c = m.counter("done", "tasks");
  for (std::uint64_t tick = 1; tick <= 31; ++tick) {
    m.add(c, 1.0);
    m.sample(tick);
  }
  EXPECT_TRUE(out.str().empty());
  m.sample(32);
  EXPECT_EQ(lines_of(out.str()).size(), 32u);
  m.sample(33);
  EXPECT_EQ(lines_of(out.str()).size(), 32u);
  m.flush();
  EXPECT_EQ(lines_of(out.str()).size(), 33u);
}

// The registry is mutex-guarded (support/sync.hpp): concurrent add()
// from a worker pool must lose no increments, and a flush after the fan
// joins must render the exact total.
TEST(MetricsRegistry, ConcurrentAddsAreExact) {
  std::ostringstream out;
  MetricsRegistry m(out);
  const auto id = m.counter("work_done", "tasks");
  constexpr std::size_t kTasks = 8;
  constexpr int kAddsPerTask = 10'000;
  support::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t) {
    for (int i = 0; i < kAddsPerTask; ++i) m.add(id, 1.0);
  });
  m.sample(1);
  m.flush();
  EXPECT_NE(out.str().find("\"value\":80000"), std::string::npos);
}

TEST(MetricsRegistry, DoublesPrintRoundTrippable) {
  std::ostringstream out;
  MetricsRegistry m(out);
  m.set(m.gauge("g", "x"), 0.1);
  m.sample(1);
  m.flush();
  // %.17g renders 0.1 with full precision — byte-stable across platforms
  // that share IEEE-754 doubles.
  EXPECT_NE(out.str().find("0.1000000000000000"), std::string::npos);
}

}  // namespace
}  // namespace dhtlb::obs

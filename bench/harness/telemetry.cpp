#include "harness/telemetry.hpp"

#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "support/json.hpp"

namespace dhtlb::bench {

// The byte-format contract (escaping, %.17g doubles) lives in
// support/json.hpp, shared with the observability writers.
using support::json_append_double;
using support::json_append_escaped;
using support::json_append_u64;

std::string to_json(const std::string& experiment,
                    const std::vector<Record>& records) {
  std::string out;
  out.reserve(128 + records.size() * 160);
  out += "{\n  \"schema_version\": 2,\n  \"experiment\": ";
  json_append_escaped(out, experiment);
  out += ",\n  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out += (i == 0) ? "\n" : ",\n";
    // Keys in alphabetical order: cell, experiment, metric,
    // [peak_rss_bytes], seed, trials, value.  peak_rss_bytes is only
    // present when nonzero.
    out += "    {\"cell\": ";
    json_append_escaped(out, r.cell);
    out += ", \"experiment\": ";
    json_append_escaped(out, r.experiment);
    out += ", \"metric\": ";
    json_append_escaped(out, r.metric);
    if (r.peak_rss_bytes != 0) {
      out += ", \"peak_rss_bytes\": ";
      json_append_u64(out, r.peak_rss_bytes);
    }
    out += ", \"seed\": ";
    json_append_u64(out, r.seed);
    out += ", \"trials\": ";
    json_append_u64(out, r.trials);
    out += ", \"value\": ";
    json_append_double(out, r.value);
    out += "}";
  }
  out += records.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

double calibrate_ms() {
  // A fixed splitmix64 chain: pure integer mixing, no repo code, so the
  // yardstick is unaffected by optimizations to the simulator itself.
  const WallTimer timer;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 20'000'000ULL; ++i) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    sink ^= z ^ (z >> 31);
  }
  // Fold the sink into an observable side effect so the loop cannot be
  // elided; the value itself is meaningless.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return timer.elapsed_ms();
}

Telemetry::Telemetry(std::string experiment, std::uint64_t seed,
                     std::string dir)
    : experiment_(std::move(experiment)), seed_(seed), dir_(std::move(dir)) {}

void Telemetry::record(const std::string& cell, const std::string& metric,
                       double value, std::uint64_t trials,
                       std::uint64_t peak_rss_bytes) {
  Record r;
  r.experiment = experiment_;
  r.cell = cell;
  r.metric = metric;
  r.value = value;
  r.seed = seed_;
  r.trials = trials;
  r.peak_rss_bytes = peak_rss_bytes;
  support::MutexLock lock(mu_);
  if (!keys_.emplace(cell, metric).second) {
    throw std::logic_error("telemetry: " + experiment_ + " records cell '" +
                           cell + "' metric '" + metric + "' twice");
  }
  records_.push_back(std::move(r));
}

std::vector<Record> Telemetry::records() const {
  support::MutexLock lock(mu_);
  return records_;
}

std::string Telemetry::json() const {
  support::MutexLock lock(mu_);
  return to_json(experiment_, records_);
}

std::uint64_t Telemetry::current_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

std::string Telemetry::output_path() const {
  return dir_ + "/BENCH_" + experiment_ + ".json";
}

bool Telemetry::flush() {
  const std::string text = json();
  std::ofstream file(output_path(), std::ios::binary | std::ios::trunc);
  file << text;
  file.close();
  return !file.fail();
}

}  // namespace dhtlb::bench

// Machine-readable benchmark telemetry.
//
// Every bench of dhtlb_bench routes its results through the Telemetry
// collector its Session owns (bench/repro_util.hpp), which mirrors the
// human-readable text output into a structured JSON file
// `BENCH_<experiment>.json`.  CI diffs these files against committed
// baselines (scripts/compare_bench.py) to catch silent changes to the
// deterministic result values and peak-RSS growth.  Records hold
// reproducible values only: wall time is printed on stdout, never
// recorded (speed is measured by perfbench/).  The one exception is
// tick_parallel's speedup_vs_t1 curve, a ratio of clocks that the
// comparator exempts from the value check.
//
// The owner passes the run's seed and output directory in (Session reads
// DHTLB_SEED and DHTLB_BENCH_DIR once, for its banner and this file);
// the collector itself reads no environment.
//
// The JSON schema is deliberately flat — one record per (cell, metric)
// pair, every record self-describing — so downstream tooling needs no
// joins:
//   {"schema_version": 2,
//    "experiment": "table2_churn",
//    "records": [
//      {"cell": "...", "experiment": "...", "metric": "...",
//       "seed": 123, "trials": 8, "value": 1.25}, ...]}
// Record keys are emitted in alphabetical order and floats with %.17g,
// so equal inputs produce byte-equal files.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/sync.hpp"

namespace dhtlb::bench {

/// One measurement: a (cell, metric) pair of an experiment.
struct Record {
  std::string experiment;
  std::string cell;     // grid cell label, e.g. "churn=0.01/1e3n-1e5t"
  std::string metric;   // what `value` is, e.g. "runtime_factor_mean"
  double value = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;
  // Process peak RSS observed after producing this value, or 0 when the
  // bench does not track memory.  Zero is "absent": the field is only
  // emitted when nonzero, so memory-blind records stay byte-stable.
  std::uint64_t peak_rss_bytes = 0;
};

/// Serializes records to the schema above.  Pure function of its inputs
/// (records are emitted in insertion order), so it is unit-testable and
/// byte-stable.
std::string to_json(const std::string& experiment,
                    const std::vector<Record>& records);

/// Times a fixed, repo-independent integer workload (a splitmix64
/// chain) and returns elapsed milliseconds.  Only perfbench reads it,
/// as the `host_cal_ms` machine-speed line of its provenance; no
/// BENCH_*.json record carries it.
double calibrate_ms();

/// Wall-clock stopwatch for labelling records.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Collects records for one experiment and writes
/// `<dir>/BENCH_<experiment>.json` on flush() — never on destruction, so
/// a run that fails part-way leaves no partial file.
///
/// Accumulation is guarded by an internal dhtlb::Mutex (checked by
/// Clang -Wthread-safety), so record() may be called from worker
/// threads of a parallel fan; JSON output order is still the exact
/// record() call order, which callers keep deterministic by recording
/// from the coordinating thread after each fan completes.
class Telemetry {
 public:
  /// Every record carries `seed`; flush() writes into `dir`.
  Telemetry(std::string experiment, std::uint64_t seed, std::string dir);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Appends one record, stamped with the constructor's seed.  Throws
  /// std::logic_error, naming the pair, if (cell, metric) was already
  /// recorded: a file holds each pair once.
  void record(const std::string& cell, const std::string& metric,
              double value, std::uint64_t trials,
              std::uint64_t peak_rss_bytes = 0) EXCLUDES(mu_);

  /// This process's peak resident set so far, in bytes (getrusage
  /// ru_maxrss), or 0 where the platform does not report it.  Scale
  /// benches pass this to record() so CI can gate memory regressions.
  static std::uint64_t current_peak_rss_bytes();

  /// Snapshot of the records accumulated so far.
  std::vector<Record> records() const EXCLUDES(mu_);
  std::string json() const EXCLUDES(mu_);

  /// Writes the JSON file with exactly the recorded records.  Returns
  /// false on I/O failure.
  bool flush() EXCLUDES(mu_);

  /// The path flush() writes to.
  std::string output_path() const;

 private:
  std::string experiment_;
  std::uint64_t seed_;
  std::string dir_;
  mutable support::Mutex mu_;
  std::vector<Record> records_ GUARDED_BY(mu_);
  std::set<std::pair<std::string, std::string>> keys_ GUARDED_BY(mu_);
};

}  // namespace dhtlb::bench

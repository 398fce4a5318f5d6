// Metrics registry: named counters, gauges, and histograms sampled once
// per simulation tick into a flat time-series JSONL stream.
//
// One line per instrument per sample (histograms: one line per bucket
// plus a _sum line), keys in alphabetical order, doubles as %.17g —
// the same byte-stability conventions as bench::to_json, so equal runs
// produce byte-equal files at any DHTLB_THREADS setting:
//
//   {"metric":"ring_gini","tick":12,"type":"gauge","unit":"ratio","value":0.25}
//   {"le":16,"metric":"workload","tick":12,"type":"histogram","unit":"tasks","value":37}
//
// Instrument semantics per sample(tick):
//   counter   — cumulative since the run started (monotone)
//   gauge     — last value set this tick
//   histogram — distribution of the observations made *this tick*
//               (reset after each sample); bucket rows are cumulative
//               in `le` (Prometheus-style), topped by le "+inf"
//
// Like TraceSink, the registry is only ever touched behind a null-
// pointer branch at the producer, so a run without --metrics pays one
// predictable branch per tick and allocates nothing.
//
// Thread safety: all state is guarded by an internal dhtlb::Mutex
// (compiler-checked via -Wthread-safety; see support/sync.hpp), so
// concurrent add()/observe() calls are safe.  Today every producer —
// the tick engine, the serving plane's batch collect and the scenario
// VM — calls the registry only from the thread that drives the tick,
// after its workers meet at the barrier; the lock keeps a future
// worker-side producer safe.  sample() defines the serialization
// point: callers must sample from one thread at a tick boundary for
// rows to land in deterministic tick order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/sync.hpp"

namespace dhtlb::obs {

class MetricsRegistry {
 public:
  using Id = std::size_t;

  /// Streams rows to `out` (non-owning), buffering and flushing every
  /// kFlushEverySamples calls to sample() — "periodic flush" without
  /// per-row syscalls.
  explicit MetricsRegistry(std::ostream& out) : out_(out) {}
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent: re-registering a name returns the
  /// existing instrument (the kind and unit must match — a mismatch is
  /// a contract violation).
  Id counter(std::string_view name, std::string_view unit) EXCLUDES(mu_);
  Id gauge(std::string_view name, std::string_view unit) EXCLUDES(mu_);
  /// `bounds` are the inclusive upper bucket edges, strictly
  /// increasing; a final +inf bucket is implicit.
  Id histogram(std::string_view name, std::string_view unit,
               std::vector<double> bounds) EXCLUDES(mu_);

  void add(Id id, double delta) EXCLUDES(mu_);      // counters
  void set(Id id, double value) EXCLUDES(mu_);      // gauges
  void observe(Id id, double value) EXCLUDES(mu_);  // histograms

  /// Batched observe(): records every value under a single lock
  /// acquisition.  This is how the tick engine publishes the post-barrier
  /// workload distribution — one fold-side call per tick instead of one
  /// lock round-trip per alive node.
  void observe_all(Id id, const std::vector<double>& values) EXCLUDES(mu_);

  /// Emits one row per instrument for `tick` (instruments in name
  /// order), then resets histograms.
  void sample(std::uint64_t tick) EXCLUDES(mu_);

  /// Writes buffered rows through to the stream.
  void flush() EXCLUDES(mu_);

  std::uint64_t rows_written() const EXCLUDES(mu_);

 private:
  static constexpr std::size_t kFlushEverySamples = 32;

  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    std::string name;
    std::string unit;
    Kind kind = Kind::kGauge;
    double value = 0.0;               // counter total / gauge value
    std::vector<double> bounds;       // histogram bucket edges
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (+inf)
    double sum = 0.0;                 // histogram per-tick sum
  };

  Id intern(std::string_view name, std::string_view unit, Kind kind)
      REQUIRES(mu_);
  void emit_row(const Instrument& inst, std::uint64_t tick) REQUIRES(mu_);
  void flush_locked() REQUIRES(mu_);

  std::ostream& out_;
  mutable support::Mutex mu_;
  std::size_t samples_since_flush_ GUARDED_BY(mu_) = 0;
  std::vector<Instrument> instruments_ GUARDED_BY(mu_);
  std::vector<Id> by_name_ GUARDED_BY(mu_);  // ids sorted by name
  std::string buffer_ GUARDED_BY(mu_);
  std::uint64_t rows_ GUARDED_BY(mu_) = 0;
};

}  // namespace dhtlb::obs

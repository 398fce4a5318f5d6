// Structured event tracing for simulator and Chord runs, exported as
// Chrome trace_event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev to get a zoomable timeline of a run).
//
// Design constraints, in order:
//   1. Zero overhead when disabled.  Nothing in this header is touched
//      unless a producer holds a non-null TraceSink*; producers guard
//      every emission with a single branch on that pointer.
//   2. Deterministic bytes.  Timestamps are derived from the simulation
//      tick (1 tick = 1 virtual second of trace time) plus a per-tick
//      emission sequence number — never from wall clocks — so two runs
//      of the same (scenario, seed) produce byte-identical traces at
//      any DHTLB_THREADS setting.
//   3. One event per line.  Trace files diff cleanly and a broken line
//      is locatable.
//
// Event vocabulary (see OBSERVABILITY.md for the full schema):
//   ph "X" complete spans — one per tick ("tick", dur = one tick)
//   ph "i" instants      — churn join/leave, scripted events, strategy
//                          decisions, sybil spawn/quit, RPC send/drop/
//                          delay/duplicate, delayed-notify delivery
//   ph "C" counters      — per-tick series chrome plots as graphs
//
// Thread safety: sink state (the virtual clock, the line buffer, the
// event counter) is guarded by an internal dhtlb::Mutex, checked by
// Clang -Wthread-safety (support/sync.hpp).  Concurrent producers get
// whole events — never interleaved bytes — but within-tick emission
// order is scheduling-dependent, so deterministic traces require one
// emitting thread per tick.  Today every producer — the tick engine,
// the serving plane's batch collect and the scenario VM — emits only
// from the thread that drives the tick, after its workers meet at the
// barrier; the lock keeps a future worker-side producer safe.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>

#include "support/sync.hpp"

namespace dhtlb::obs {

/// One "args" entry of a trace event.  Implicit constructors let call
/// sites write `{{"count", n}, {"kind", "drop"}}`.
class ArgValue {
 public:
  ArgValue(std::uint64_t v) : kind_(Kind::kU64), u64_(v) {}            // NOLINT
  ArgValue(std::uint32_t v) : kind_(Kind::kU64), u64_(v) {}            // NOLINT
  ArgValue(int v) : kind_(Kind::kU64),                                 // NOLINT
                    u64_(static_cast<std::uint64_t>(v < 0 ? 0 : v)) {}
  ArgValue(double v) : kind_(Kind::kF64), f64_(v) {}                   // NOLINT
  ArgValue(const char* v) : kind_(Kind::kStr), str_(v) {}              // NOLINT
  ArgValue(std::string_view v) : kind_(Kind::kStr), str_(v) {}         // NOLINT
  ArgValue(const std::string& v) : kind_(Kind::kStr), str_(v) {}       // NOLINT

  /// Appends this value as a JSON literal.
  void append_to(std::string& out) const;

 private:
  enum class Kind { kU64, kF64, kStr };
  Kind kind_;
  std::uint64_t u64_ = 0;
  double f64_ = 0.0;
  std::string str_;
};

using Arg = std::pair<std::string_view, ArgValue>;

/// Streaming Chrome trace_event writer.  Producers share one sink; the
/// owner (runner or test) controls its lifetime and calls close() (or
/// lets the destructor) to finish the JSON document.
class TraceSink {
 public:
  /// Starts the trace document on `out` (non-owning; must outlive the
  /// sink or its close()).
  explicit TraceSink(std::ostream& out);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Advances the virtual clock to (1-based) `tick` and resets the
  /// within-tick sequence counter.  Every later event is stamped
  /// ts = tick * 1e6 + sequence (µs, so one tick spans one virtual
  /// second), making events sort by (tick, emission order) — the only
  /// clock in the file.
  void set_tick(std::uint64_t tick) EXCLUDES(mu_);
  std::uint64_t tick() const EXCLUDES(mu_);

  /// ph "i" instant event at the current (tick, sequence) position.
  void instant(std::string_view name, std::string_view category,
               std::initializer_list<Arg> args = {}) EXCLUDES(mu_);

  /// ph "X" complete span covering the whole current tick.  Emitted
  /// after the tick's instants; chrome orders by ts, not file order.
  void complete_tick(std::string_view name,
                     std::initializer_list<Arg> args = {}) EXCLUDES(mu_);

  /// ph "C" counter sample; chrome plots each name as a series.
  void counter(std::string_view name, double value) EXCLUDES(mu_);

  /// Writes the document footer.  Idempotent; further events are
  /// silently dropped once closed.
  void close() EXCLUDES(mu_);

  /// Events emitted so far (tests and flush heuristics).
  std::uint64_t event_count() const EXCLUDES(mu_);

 private:
  void begin_event(std::string_view name, std::string_view category,
                   char phase, std::uint64_t ts) REQUIRES(mu_);
  void append_args(std::initializer_list<Arg> args) REQUIRES(mu_);
  void end_event() REQUIRES(mu_);

  std::ostream& out_;
  mutable support::Mutex mu_;
  std::string line_ GUARDED_BY(mu_);  // reused per-event buffer
  std::uint64_t tick_ GUARDED_BY(mu_) = 0;
  std::uint64_t seq_ GUARDED_BY(mu_) = 0;
  std::uint64_t events_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace dhtlb::obs

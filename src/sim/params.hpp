// Simulation parameters — the paper's experimental variables (§V-B).
//
// Field names follow the paper's vocabulary: network size, number of
// tasks, homogeneity, work measurement, churn rate, maxSybils,
// sybilThreshold, successors, plus the 5-tick decision cadence from
// §IV-B and one optional extension flag (§IV-C's "mark failed ranges"
// suggestion).
//
// The user-settable fields also form a table (ParamField, below): one
// entry per `.scn` header key, holding the value grammar and the input
// limit.  Params::set and Params::format are the only text <-> field
// mapping; the scenario parser, the canonical emitter and
// `dhtlb_scenario --help` all go through them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace dhtlb::sim {

/// How much work a node consumes per tick (§V-B "Work Measurement").
enum class WorkMeasure {
  kOneTaskPerTick,   // default: every node completes one task per tick
  kStrengthPerTick,  // a node completes `strength` tasks per tick
};

/// How the job's tasks enter the ring (DESIGN.md §0).
enum class TaskProvisioning {
  /// Legacy default: all total_tasks keys are drawn and assigned to
  /// their owner arcs at tick 0 — O(total_tasks) resident from the
  /// start.  Every pre-streaming golden/baseline was recorded here.
  kPreallocated,
  /// Streamed: a sim::TaskStream fixes a closed-form per-tick arrival
  /// schedule and draws exact keys lazily on the tick they arrive, so
  /// resident tasks track the backlog instead of the horizon.
  kStreamed,
};

struct Params {
  /// Largest initial_nodes: World numbers its 2·n physical nodes with a
  /// 32-bit NodeIndex whose all-ones value is a sentinel, so every index
  /// 0..2·n-1 must stay below it.
  static constexpr std::size_t kMaxInitialNodes = 0x7FFF'FFFF;

  /// Largest num_successors.  Strategies walk or probe this many
  /// neighbor arcs per node per decision round, and the auditor walks
  /// both lists of every vnode, so the length multiplies per-round work.
  /// The paper uses 5 (§V-B).
  static constexpr std::size_t kMaxSuccessors = 64;

  /// Input limits: the largest initial_nodes and total_tasks a text
  /// input (a `.scn` header, an env knob read as a field) may set, also
  /// the largest node and task counts of one scenario event.  Each node
  /// is a vnode slot and each task a resident 20-byte key, so a count
  /// past these is rejected rather than run until the process dies.
  static constexpr std::uint64_t kMaxInputNodes = 4'000'000;
  static constexpr std::uint64_t kMaxInputTasks = 100'000'000;

  /// Nodes alive at tick zero.  A pool of equally many waiting nodes is
  /// created alongside (§IV-A), so churn joins/leaves roughly balance.
  std::size_t initial_nodes = 1000;

  /// Job size in tasks; each task has a SHA-1 key (§V-A).
  std::uint64_t total_tasks = 100'000;

  /// Heterogeneous networks draw each node's strength uniformly from
  /// {1..max_sybils}; homogeneous networks use strength 1 everywhere.
  bool heterogeneous = false;

  WorkMeasure work_measure = WorkMeasure::kOneTaskPerTick;

  /// Per-tick probability that each alive node leaves and each waiting
  /// node joins (§V-B; joining and leaving rates are equal).
  double churn_rate = 0.0;

  /// Sybil cap for homogeneous nodes, and the upper bound of the
  /// strength distribution for heterogeneous ones (§V-B).
  unsigned max_sybils = 5;

  /// A node may create a Sybil only when its workload is at or below
  /// this many tasks (§V-B; default 0 = must be fully idle).
  std::uint64_t sybil_threshold = 0;

  /// Successor-list length; nodes track equally many predecessors (§V-B).
  std::size_t num_successors = 5;

  /// Sybil strategies run their decision step every this many ticks
  /// (§IV-B: "This check occurs every 5 ticks").
  std::uint64_t decision_period = 5;

  /// §IV-C extension: remember arcs where an injected Sybil acquired no
  /// work and skip them on later decisions.  Off by default (the paper
  /// only suggests it); exercised by the ablation bench.
  bool mark_failed_ranges = false;

  /// Hard tick cap; 0 selects an automatic safety cap well above any
  /// plausible runtime factor.  Runs hitting the cap report
  /// completed == false.
  std::uint64_t max_ticks = 0;

  /// Task provisioning mode; kPreallocated keeps every pre-streaming
  /// output byte-identical.
  TaskProvisioning provisioning = TaskProvisioning::kPreallocated;

  /// Streamed mode only: ticks over which the job arrives.  0 = auto,
  /// which the engine resolves to the ideal runtime so the arrival rate
  /// matches the initial capacity (bounded backlog).  Ignored in
  /// preallocated mode.
  std::uint64_t arrival_ticks = 0;

  /// Throws std::invalid_argument on out-of-domain values.
  void validate() const;

  /// The effective cap used by the engine.
  std::uint64_t effective_max_ticks(std::uint64_t ideal_ticks) const;

  std::string describe() const;

  /// Sets the field whose table key is `key` from its text, checking
  /// its grammar and input limit (structural and cross-field checks stay
  /// in validate()).  Throws std::invalid_argument worded for a `.scn`
  /// diagnostic: "node count 5000000 is out of range (at most 4000000)",
  /// "unknown key 'x'".
  void set(std::string_view key, std::string_view text);

  /// The canonical text of field `key`; set(key, format(key)) is a no-op.
  std::string format(std::string_view key) const;
};

/// One user-settable Params field: its `.scn` header key, value grammar
/// and input limit.
struct ParamField {
  // kCount: support::parse_count up to `max`; kProbability: a real in
  // [0, 1]; kBool and kEnum: one of `names`.
  enum class Grammar { kCount, kProbability, kBool, kEnum };
  // A value in table form: a count, flag or enum index in `n`, a
  // probability in `x`.
  struct Value {
    std::uint64_t n = 0;
    double x = 0.0;
  };

  std::string_view key;
  Grammar grammar;
  std::string_view noun;                    // names the value in messages
  std::uint64_t max;                        // kCount: the input limit
  std::span<const std::string_view> names;  // kBool/kEnum: text of value i
  std::string_view value_name;              // usage: `nodes <count>`
  std::string_view help;  // dhtlb_scenario --help description
  bool chord;                               // also a chord-substrate key
  bool streamed_only;  // meaningful under streamed provisioning only
  Value (*load)(const Params&);
  void (*store)(Params&, Value);

  /// Whether the field means anything under `p` (what the canonical
  /// emitter writes).
  bool applies(const Params& p) const {
    return !streamed_only || p.provisioning == TaskProvisioning::kStreamed;
  }
};

/// Every user-settable field, in canonical (emit) order.
std::span<const ParamField> param_fields();

/// The field with `key`, or nullptr.
const ParamField* find_param_field(std::string_view key);

}  // namespace dhtlb::sim

#include "sim/params.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "support/number.hpp"

namespace dhtlb::sim {

namespace {

using enum ParamField::Grammar;

// Loads and stores one member in table form.
template <auto Member>
ParamField::Value load(const Params& p) {
  if constexpr (std::is_floating_point_v<
                    std::remove_cvref_t<decltype(p.*Member)>>) {
    return {0, p.*Member};
  } else {
    return {static_cast<std::uint64_t>(p.*Member), 0.0};
  }
}
template <auto Member>
void store(Params& p, ParamField::Value value) {
  using T = std::remove_cvref_t<decltype(p.*Member)>;
  if constexpr (std::is_floating_point_v<T>) {
    p.*Member = value.x;
  } else {
    p.*Member = static_cast<T>(value.n);
  }
}
#define MEMBER(name) &load<&Params::name>, &store<&Params::name>

constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kUint = std::numeric_limits<unsigned>::max();
// Names indexed by value: false/true, then each enum's enumerators.
constexpr std::string_view kBoolNames[] = {"false", "true"};
constexpr std::string_view kWorkMeasure[] = {"one", "strength"};
constexpr std::string_view kProvisioning[] = {"preallocated", "streamed"};

// key, grammar, noun, max, names, value_name, help, chord, streamed_only.
const ParamField kFields[] = {
    {"nodes", kCount, "node count", Params::kMaxInputNodes, {}, "count",
     "initial network size", true, false, MEMBER(initial_nodes)},
    {"successors", kCount, "successors", Params::kMaxSuccessors, {}, "k",
     "successor/predecessor list size", true, false, MEMBER(num_successors)},
    {"tasks", kCount, "task count", Params::kMaxInputTasks, {}, "count",
     "job size in tasks", false, false, MEMBER(total_tasks)},
    {"churn", kProbability, "churn rate", 0, {}, "rate",
     "per-tick leave/join probability", false, false, MEMBER(churn_rate)},
    {"heterogeneous", kBool, "heterogeneous", 0, kBoolNames, "true|false",
     "heterogeneous strengths U{1..max-sybils}", false, false,
     MEMBER(heterogeneous)},
    {"work-measure", kEnum, "work-measure", 0, kWorkMeasure, "one|strength",
     "tasks consumed per tick", false, false, MEMBER(work_measure)},
    {"threshold", kCount, "sybilThreshold", kAny, {}, "tasks",
     "sybilThreshold", false, false, MEMBER(sybil_threshold)},
    {"max-sybils", kCount, "max-sybils", kUint, {}, "k",
     "Sybil cap / strength ceiling", false, false, MEMBER(max_sybils)},
    {"decision-period", kCount, "decision period", kAny, {}, "ticks",
     "ticks between Sybil decision rounds", false, false,
     MEMBER(decision_period)},
    {"provisioning", kEnum, "provisioning", 0, kProvisioning,
     "preallocated|streamed", "how the job's tasks enter the ring", false,
     false, MEMBER(provisioning)},
    {"arrival-ticks", kCount, "arrival ticks", kAny, {}, "ticks",
     "streamed arrival window (0 = the ideal runtime)", false, true,
     MEMBER(arrival_ticks)},
    {"mark-failed-ranges", kBool, "mark-failed-ranges", 0, kBoolNames,
     "true|false", "neighbor injection: skip arcs that yielded nothing",
     false, false, MEMBER(mark_failed_ranges)},
};
#undef MEMBER

const ParamField& field_or_throw(std::string_view key) {
  const ParamField* field = find_param_field(key);
  if (field == nullptr) {
    throw std::invalid_argument("unknown key '" + std::string(key) + "'");
  }
  return *field;
}

std::uint64_t name_index(const ParamField& field, std::string_view text) {
  for (std::size_t i = 0; i < field.names.size(); ++i) {
    if (field.names[i] == text) return i;
  }
  const std::string noun(field.noun);
  const std::string got(text);
  if (field.grammar == kBool) {
    throw std::invalid_argument("expected true/false for " + noun +
                                ", got '" + got + "'");
  }
  std::string expected;
  for (const std::string_view name : field.names) {
    if (!expected.empty()) expected += " or ";
    expected += name;
  }
  throw std::invalid_argument("unknown " + noun + " '" + got +
                              "' (expected " + expected + ")");
}

}  // namespace

std::span<const ParamField> param_fields() { return kFields; }

const ParamField* find_param_field(std::string_view key) {
  for (const ParamField& field : kFields) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

void Params::set(std::string_view key, std::string_view text) {
  const ParamField& field = field_or_throw(key);
  ParamField::Value value;
  if (field.grammar == kCount) {
    value.n = support::parse_count(field.noun, text, field.max);
  } else if (field.grammar == kProbability) {
    value.x = support::parse_probability(field.noun, text);
  } else {
    value.n = name_index(field, text);
  }
  field.store(*this, value);
}

std::string Params::format(std::string_view key) const {
  const ParamField& field = field_or_throw(key);
  const ParamField::Value value = field.load(*this);
  if (field.grammar == kCount) return std::to_string(value.n);
  if (field.grammar == kProbability) {
    return support::format_real(value.x);
  }
  return std::string(field.names[value.n]);
}

void Params::validate() const {
  if (initial_nodes == 0) {
    throw std::invalid_argument("Params: initial_nodes must be >= 1");
  }
  if (initial_nodes > kMaxInitialNodes) {
    throw std::invalid_argument(
        "Params: initial_nodes must be at most " +
        std::to_string(kMaxInitialNodes) +
        " (2 * initial_nodes physical nodes need 32-bit indices)");
  }
  if (total_tasks == 0) {
    throw std::invalid_argument("Params: total_tasks must be >= 1");
  }
  if (!(churn_rate >= 0.0 && churn_rate <= 1.0)) {
    throw std::invalid_argument("Params: churn_rate must be in [0, 1]");
  }
  if (max_sybils == 0) {
    throw std::invalid_argument("Params: max_sybils must be >= 1");
  }
  if (num_successors == 0) {
    throw std::invalid_argument("Params: num_successors must be >= 1");
  }
  if (num_successors > kMaxSuccessors) {
    throw std::invalid_argument("Params: num_successors must be at most " +
                                std::to_string(kMaxSuccessors));
  }
  if (decision_period == 0) {
    throw std::invalid_argument("Params: decision_period must be >= 1");
  }
  if (arrival_ticks != 0 && provisioning != TaskProvisioning::kStreamed) {
    throw std::invalid_argument(
        "Params: arrival_ticks requires streamed provisioning");
  }
}

std::uint64_t Params::effective_max_ticks(std::uint64_t ideal_ticks) const {
  if (max_ticks != 0) return max_ticks;
  // The worst runtime factor the paper observes is < 10; x200 plus slack
  // is a generous runaway guard, not a result-shaping bound.
  return std::max<std::uint64_t>(200 * ideal_ticks, 10'000);
}

std::string Params::describe() const {
  std::ostringstream out;
  out << initial_nodes << " nodes, " << total_tasks << " tasks, "
      << (heterogeneous ? "heterogeneous" : "homogeneous") << ", "
      << (work_measure == WorkMeasure::kOneTaskPerTick ? "1 task/tick"
                                                       : "strength/tick")
      << ", churn=" << churn_rate << ", maxSybils=" << max_sybils
      << ", sybilThreshold=" << sybil_threshold
      << ", successors=" << num_successors;
  // Appended only in streamed mode so every preallocated describe()
  // string (embedded in goldens/baselines) stays byte-identical.
  if (provisioning == TaskProvisioning::kStreamed) {
    out << ", provisioning=streamed(arrival_ticks=";
    if (arrival_ticks == 0) {
      out << "auto";
    } else {
      out << arrival_ticks;
    }
    out << ")";
  }
  return out.str();
}

}  // namespace dhtlb::sim

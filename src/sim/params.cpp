#include "sim/params.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace dhtlb::sim {

void Params::validate() const {
  if (initial_nodes == 0) {
    throw std::invalid_argument("Params: initial_nodes must be >= 1");
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

// Evaluates the paper's §VII future-work directions, implemented in
// src/lb as extensions:
//   * strength-aware acquisition — "consider the node strength as a
//     factor": does it close the heterogeneous-efficiency gap?
//   * chosen-ID (median) splits — "if we removed the assumption that
//     nodes cannot choose their own ID": how much of the remaining gap
//     to the ideal is the no-ID-choice assumption responsible for?
//
// Compares the extensions against the paper's best (random injection)
// and the matching information-model baselines on homogeneous and
// heterogeneous networks.
#include "lb/factory.hpp"
#include "repro_util.hpp"

namespace dhtlb::bench {

void tableF_future_work(Session& session) {
  auto run_set = [&](const char* title, const char* cell_prefix,
                     sim::Params p,
                     std::initializer_list<const char*> strategies) {
    std::printf("--- %s ---\n", title);
    support::TextTable table(
        {"strategy", "runtime factor", "sybils/trial", "queries/trial"});
    // One batched fan per set: the strategies share the pool barrier.
    std::vector<exp::CellSpec> cells;
    std::vector<std::string> labels;
    for (const char* name : strategies) {
      cells.push_back({p, name, session.trials()});
      labels.push_back(std::string(cell_prefix) + "/" + name);
    }
    const auto aggs = session.run_grid(cells, labels);
    for (const auto& agg : aggs) {
      table.add_row({agg.strategy,
                     support::format_fixed(agg.runtime_factor.mean, 3),
                     support::format_fixed(agg.mean_sybils_created, 0),
                     support::format_fixed(agg.mean_workload_queries, 0)});
    }
    std::printf("%s\n", table.render().c_str());
  };

  // Homogeneous: chosen-ID vs the paper's strategies — isolates the
  // value of ID choice at both reach scopes.
  run_set("homogeneous 1000 n / 1e5 t", "hom",
          paper_defaults(1000, 100'000),
          {"none", "random-injection", "smart-neighbor-injection",
           "chosen-id-neighbor", "chosen-id-global"});

  // Heterogeneous with strength consumption: strength-aware vs blind.
  sim::Params het = paper_defaults(1000, 100'000);
  het.heterogeneous = true;
  het.work_measure = sim::WorkMeasure::kStrengthPerTick;
  run_set("heterogeneous (strength/tick) 1000 n / 1e5 t", "het", het,
          {"none", "random-injection", "invitation", "strength-aware",
           "chosen-id-global"});

  // Wide-disparity heterogeneous — where the paper saw the worst
  // degradation (maxSybils 10).
  sim::Params wide = het;
  wide.max_sybils = 10;
  run_set("heterogeneous, maxSybils=10 (wide disparity)", "het-wide", wide,
          {"random-injection", "strength-aware"});

  std::printf(
      "Reading guide: strength-aware should beat random injection on the\n"
      "heterogeneous rows (the paper's efficiency gap); chosen-id-global\n"
      "approaching 1.0 bounds what ID choice alone can buy.\n");
}

}  // namespace dhtlb::bench

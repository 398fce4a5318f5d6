// Reproduces Table II: runtime factor of the Induced Churn strategy over
// churn rates {0, 1e-4, 1e-3, 1e-2} and five (nodes, tasks) network
// configurations.  Homogeneous, one task per tick; each cell averages
// `trials` runs.
//
// Expected shape (paper): every column falls monotonically as churn
// rises; larger task counts gain more (the 100-node/1e6-task column
// reaches ~1.3 at churn 0.01).
#include "repro_util.hpp"

namespace dhtlb::bench {

void table2_churn(Session& session) {
  struct Config {
    std::size_t nodes;
    std::uint64_t tasks;
    const char* label;
  };
  const std::vector<Config> configs = {
      {1000, 100'000, "1e3 n/1e5 t"},
      {1000, 1'000'000, "1e3 n/1e6 t"},
      {100, 10'000, "1e2 n/1e4 t"},
      {100, 100'000, "1e2 n/1e5 t"},
      {100, 1'000'000, "1e2 n/1e6 t"}};
  const double churn_rates[] = {0.0, 0.0001, 0.001, 0.01};

  // Paper's Table II, same cell order, for the side-by-side.
  const double paper[4][5] = {{7.476, 7.467, 5.043, 5.022, 5.016},
                              {7.122, 5.732, 4.934, 4.362, 3.077},
                              {6.047, 3.674, 4.391, 3.019, 1.863},
                              {3.721, 2.104, 3.076, 1.873, 1.309}};

  // The whole 4x5 grid goes through one batched fan: a single pool
  // barrier instead of twenty.
  std::vector<exp::CellSpec> cells;
  std::vector<std::string> labels;
  for (int r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      sim::Params p = paper_defaults(configs[c].nodes,
                                            configs[c].tasks);
      p.churn_rate = churn_rates[r];
      cells.push_back({p, "churn", session.trials()});
      labels.push_back("churn=" + support::format_fixed(churn_rates[r], 4) +
                       "/" + configs[c].label);
    }
  }
  const auto aggs = session.run_grid(cells, labels);

  std::vector<std::string> header = {"Churn rate"};
  for (const auto& c : configs) header.push_back(c.label);
  support::TextTable table(header);

  for (int r = 0; r < 4; ++r) {
    std::vector<std::string> ours_row = {support::format_fixed(churn_rates[r], 4)};
    std::vector<std::string> paper_row = {"  (paper)"};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto& agg = aggs[static_cast<std::size_t>(r) * configs.size() + c];
      ours_row.push_back(support::format_fixed(agg.runtime_factor.mean, 3));
      paper_row.push_back(support::format_fixed(paper[r][c], 3));
    }
    table.add_row(ours_row);
    table.add_row(paper_row);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape checks: factors fall monotonically down every column; gains\n"
      "grow with the task count; smaller networks start from a lower base.\n");
}

}  // namespace dhtlb::bench

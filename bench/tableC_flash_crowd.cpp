// Flash-crowd experiment for the §VII claim: "Each joining node is
// another member of the network that can fully participate in the
// computation, despite not being present at the beginning."
//
// A job starts on N nodes; at a chosen tick, a burst of K waiting nodes
// joins at once (a flash crowd — volunteers arriving after a launch,
// the Folding@Home 2020 story from §I).  Measured: how much of the
// remaining work the newcomers absorb and how much the makespan drops,
// with and without a Sybil strategy running alongside.
#include "lb/factory.hpp"
#include "repro_util.hpp"

namespace dhtlb::bench {
namespace {

// Label of the burst-join placement stream: each trial's late joiners
// draw their ring IDs from mix_seed(trial seed, kBurstStream), apart
// from every stream the engine derives from the same seed.
constexpr std::uint64_t kBurstStream = 0xF1A5C20ULL;  // "flash crowd"

struct FlashResult {
  std::uint64_t ticks = 0;
  double runtime_factor = 0.0;
  std::size_t joined = 0;
};

FlashResult run_flash(const char* strategy, std::size_t burst,
                      std::uint64_t burst_tick, std::uint64_t seed) {
  sim::Params p = paper_defaults(500, 50'000);
  sim::Engine engine(p, seed, lb::make_strategy(strategy));
  support::Rng burst_rng(support::mix_seed(seed, kBurstStream));
  FlashResult result;
  while (true) {
    if (engine.current_tick() == burst_tick) {
      for (std::size_t i = 0; i < burst; ++i) {
        if (engine.world().join_from_pool(burst_rng)) ++result.joined;
      }
    }
    if (!engine.step()) break;
  }
  result.ticks = engine.current_tick();
  // The factor keeps the ORIGINAL ideal (100 ticks): the interesting
  // quantity is speedup relative to the job as planned.
  result.runtime_factor =
      static_cast<double>(result.ticks) /
      static_cast<double>(engine.ideal_ticks());
  return result;
}

}  // namespace

void tableC_flash_crowd(Session& session) {
  const std::size_t trials = session.trials();

  support::TextTable table({"strategy", "burst", "at tick",
                            "runtime factor", "vs no burst"});
  for (const char* strategy : {"none", "random-injection"}) {
    double no_burst = 0.0;
    for (const auto& [burst, tick] :
         std::vector<std::pair<std::size_t, std::uint64_t>>{
             {0, 0}, {250, 10}, {250, 50}, {500, 10}}) {
      double factor = 0.0;
      for (std::size_t t = 0; t < trials; ++t) {
        factor += run_flash(strategy, burst, tick,
                            support::mix_seed(session.seed(), t))
                      .runtime_factor;
      }
      factor /= static_cast<double>(trials);
      if (burst == 0) no_burst = factor;
      session.record(std::string(strategy) + "/burst=" +
                         std::to_string(burst) + "@t" + std::to_string(tick),
                     "runtime_factor_mean", factor);
      table.add_row({strategy, std::to_string(burst),
                     burst == 0 ? "-" : std::to_string(tick),
                     support::format_fixed(factor, 3),
                     burst == 0 ? "-"
                                : support::format_fixed(no_burst - factor,
                                                        3)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading guide: newcomers help even with NO strategy (they land in\n"
      "random arcs and take over work — the churn mechanism); an early\n"
      "burst helps more than a late one; with random injection running,\n"
      "the crowd is folded in even faster.\n");
}

}  // namespace dhtlb::bench

// Micro-benchmarks for the tick simulator: world construction (SHA-1
// placement of nodes and tasks), steady-state tick throughput, Sybil
// creation (arc split) cost, and full-run cost per strategy.
#include <benchmark/benchmark.h>

#include <optional>

#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"

namespace {

using dhtlb::sim::Engine;
using dhtlb::sim::Params;
using dhtlb::sim::World;
using dhtlb::support::Rng;

Params make_params(std::size_t nodes, std::uint64_t tasks) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

void BM_WorldConstruction(benchmark::State& state) {
  const Params p = make_params(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::uint64_t>(state.range(1)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    World w(p, rng);
    benchmark::DoNotOptimize(w.remaining_tasks());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_WorldConstruction)
    ->Args({1000, 100'000})
    ->Args({1000, 1'000'000})
    ->Unit(benchmark::kMillisecond);

void BM_TickThroughput(benchmark::State& state) {
  // Steady-state tick cost on the paper's default network, no strategy.
  // Engine holds internal references, so rebuilds go through optional.
  std::optional<Engine> engine;
  engine.emplace(make_params(1000, 100'000), 7);
  for (auto _ : state) {
    if (!engine->step()) {
      state.PauseTiming();
      engine.emplace(make_params(1000, 100'000), 7);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_TickThroughput)->Unit(benchmark::kMicrosecond);

void BM_CreateSybil(benchmark::State& state) {
  // Arc-split cost at default load (~100 keys per arc).
  Rng rng(9);
  World w(make_params(1000, 100'000), rng);
  Rng id_rng(10);
  const auto idx = w.alive_indices().front();
  for (auto _ : state) {
    const auto id = id_rng.uniform_u160();
    benchmark::DoNotOptimize(w.create_sybil(idx, id));
    state.PauseTiming();
    w.remove_sybils(idx);  // keep the ring size stable
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CreateSybil)->Unit(benchmark::kMicrosecond);

void BM_FullRunByStrategy(benchmark::State& state) {
  const std::string_view name =
      dhtlb::lb::strategy_names()[static_cast<std::size_t>(state.range(0))];
  Params p = make_params(500, 50'000);
  if (name == "churn") p.churn_rate = 0.01;
  std::uint64_t seed = 11;
  double factor_sum = 0.0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Engine engine(p, seed++, dhtlb::lb::make_strategy(name));
    const auto r = engine.run();
    factor_sum += r.runtime_factor;
    ++runs;
    benchmark::DoNotOptimize(r.ticks);
  }
  state.SetLabel(std::string(name));
  state.counters["runtime_factor"] = benchmark::Counter(
      factor_sum / static_cast<double>(runs));
}
BENCHMARK(BM_FullRunByStrategy)
    ->DenseRange(0, static_cast<int>(dhtlb::lb::strategy_names().size()) - 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

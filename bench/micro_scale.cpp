// Micro-benchmarks for the flat-ring data layer at the scales the
// roadmap targets: world construction (bulk load + two-pass task
// assignment), successor-arc walks, point and batched lookups (cover,
// cover_sorted), greedy finger routes over a frozen RingView (one at a
// time and interleaved in batches), the full
// invariant audit, one consume pass and one invitation round (the
// tick's two serial node loops), churn
// (join/depart cycles), and Sybil waves (bulk create_sybil growth),
// the last two driving the blocked index's in-block shifts and splits,
// plus the bytes per vnode each layer holds (BM_ScaleBytesPerVnode).  These are
// the throughput numbers the scaling work is judged by — see the
// "Performance trajectory" section of EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "lb/factory.hpp"
#include "serve/ring_view.hpp"
#include "sim/audit.hpp"
#include "sim/flat_ring.hpp"
#include "sim/strategy.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"

namespace {

using dhtlb::serve::RingView;
using dhtlb::sim::ArcView;
using dhtlb::sim::AuditReport;
using dhtlb::sim::FlatRing;
using dhtlb::sim::InvariantAuditor;
using dhtlb::sim::NodeIndex;
using dhtlb::sim::Params;
using dhtlb::sim::Slot;
using dhtlb::sim::World;
using dhtlb::support::Rng;
using dhtlb::support::Uint160;

Params make_params(std::size_t nodes, std::uint64_t tasks) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

void BM_ScaleConstruction(benchmark::State& state) {
  // Full world build: SHA-1 placement, bulk index sort, exact-owner
  // task assignment.  Tasks scale 2x nodes, matching tableS_scale.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const Params p = make_params(nodes, 2 * nodes);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    World w(p, rng);
    benchmark::DoNotOptimize(w.remaining_tasks());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScaleConstruction)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_ScaleArcWalk(benchmark::State& state) {
  // successor_arcs(slot, 5) from every vnode in ring order — the
  // strategy inner loop.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  World w(make_params(nodes, 2 * nodes), rng);
  std::vector<Slot> slots;
  slots.reserve(w.vnode_count());
  w.for_each_arc([&](const ArcView& arc) { slots.push_back(arc.slot); });
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const Slot slot : slots) {
      for (const auto& arc : w.successor_arcs(slot, 5)) sum += arc.task_count;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 5);
}
BENCHMARK(BM_ScaleArcWalk)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_ScaleCover(benchmark::State& state) {
  // Point lookups at uniformly random keys — the task-routing path.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  World w(make_params(nodes, 2 * nodes), rng);
  Rng key_rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.arc_covering(key_rng.uniform_u160()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScaleCover)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kNanosecond);

void BM_ScaleRoute(benchmark::State& state) {
  // Greedy perfect-finger routes over a frozen view of BM_ScaleCover's
  // world — the serving plane's per-lookup path: uniform keys from
  // uniformly random origins.  Items are routes.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  const World w(make_params(nodes, 2 * nodes), rng);
  const RingView view = RingView::freeze(w, 0);
  Rng key_rng(7);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const Uint160 key = key_rng.uniform_u160();
    const auto origin = static_cast<std::size_t>(key_rng.below(view.size()));
    hops += view.route(key, origin).hops;
  }
  benchmark::DoNotOptimize(hops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScaleRoute)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kNanosecond);

void BM_ScaleRouteBatch(benchmark::State& state) {
  // BM_ScaleRoute's key and origin stream, routed 256 at a time through
  // RingView::route_batch as the serving plane's shard jobs route them:
  // the per-route gain of overlapping walks.  Items are routes.
  constexpr std::size_t kBatch = 256;
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  const World w(make_params(nodes, 2 * nodes), rng);
  const RingView view = RingView::freeze(w, 0);
  Rng key_rng(7);
  std::vector<Uint160> keys(kBatch);
  std::vector<std::size_t> origins(kBatch);
  std::vector<RingView::Route> routes(kBatch);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    // Drawn inside the timed loop, as BM_ScaleRoute draws its own.
    for (std::size_t i = 0; i < kBatch; ++i) {
      keys[i] = key_rng.uniform_u160();
      origins[i] = static_cast<std::size_t>(key_rng.below(view.size()));
    }
    view.route_batch(keys, origins, routes);
    for (const RingView::Route& r : routes) hops += r.hops;
  }
  benchmark::DoNotOptimize(hops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ScaleRouteBatch)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

void BM_ScaleAudit(benchmark::State& state) {
  // The full InvariantAuditor::run() over BM_ScaleCover's world: every
  // check, which is what an audited run pays per tick at this scale.
  // Items are vnodes.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  const World w(make_params(nodes, 2 * nodes), rng);
  for (auto _ : state) {
    const AuditReport report = InvariantAuditor(w).run();
    benchmark::DoNotOptimize(report);
    if (!report.ok()) {
      state.SkipWithError("audit of a clean world failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.vnode_count()));
}
BENCHMARK(BM_ScaleAudit)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_ScaleConsume(benchmark::State& state) {
  // One consume pass over BM_ScaleCover's world, as the engine's consume
  // phase runs it: the alive nodes binned by home shard, each shard's
  // members consumed in order on one stream.  Every iteration starts
  // from a fresh copy of the world (not timed).  Items are nodes.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  const World start(make_params(nodes, 2 * nodes), rng);
  std::vector<std::vector<NodeIndex>> shards(dhtlb::sim::kTickShards);
  for (const NodeIndex idx : start.alive_indices()) {
    shards[start.home_shard(idx)].push_back(idx);
  }
  std::optional<World> w;
  for (auto _ : state) {
    state.PauseTiming();
    w.emplace(start);
    Rng consume_rng(5);
    state.ResumeTiming();
    std::uint64_t consumed = 0;
    for (const auto& members : shards) {
      consumed += w->consume_members(members, consume_rng);
    }
    benchmark::DoNotOptimize(consumed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScaleConsume)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_ScaleDecide(benchmark::State& state) {
  // One Invitation decision round over BM_ScaleCover's world: every
  // alive node in a shuffled order, overburdened ones inviting a
  // predecessor to split their busiest arc.  Every iteration starts
  // from a fresh copy of the world (not timed).  Items are nodes.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  const World start(make_params(nodes, 2 * nodes), rng);
  const auto strategy = dhtlb::lb::make_strategy("invitation");
  std::optional<World> w;
  for (auto _ : state) {
    state.PauseTiming();
    w.emplace(start);
    Rng decide_rng(5);
    dhtlb::sim::StrategyCounters counters;
    state.ResumeTiming();
    strategy->decide(*w, decide_rng, counters);
    benchmark::DoNotOptimize(counters.sybils_created);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScaleDecide)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_ScaleCoverBatch(benchmark::State& state) {
  // BM_ScaleCover's ring and keys, resolved as batches of one key per
  // vnode through FlatRing::cover_sorted (bucket, sort, one sweep) — the
  // search of the arrival fold.  Items are keys, so items/s compares
  // with BM_ScaleCover's per-key point lookups.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  const World w(make_params(nodes, 2 * nodes), rng);
  const std::vector<Uint160> ids = w.ring_ids();
  FlatRing ring;
  ring.bulk_load(ids, std::vector<NodeIndex>(ids.size(), 0));
  Rng key_rng(7);
  std::vector<Uint160> keys(nodes);
  for (Uint160& key : keys) key = key_rng.uniform_u160();
  std::vector<Slot> slots(nodes);
  FlatRing::CoverScratch scratch;
  for (auto _ : state) {
    ring.cover_sorted(keys, slots, scratch);
    benchmark::DoNotOptimize(slots.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScaleCoverBatch)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

void BM_ScaleChurn(benchmark::State& state) {
  // One depart + one join per iteration: an erase and an insert in the
  // blocked index, each shifting entries inside one block.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  World w(make_params(nodes, 2 * nodes), rng);
  Rng pick(5);
  for (auto _ : state) {
    const auto& alive = w.alive_indices();
    const auto victim =
        alive[static_cast<std::size_t>(pick.range(0, alive.size() - 1))];
    benchmark::DoNotOptimize(w.depart(victim));
    benchmark::DoNotOptimize(w.join_from_pool(rng));
  }
}
BENCHMARK(BM_ScaleChurn)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

void BM_ScaleSybilWave(benchmark::State& state) {
  // create_sybil at uniform ids until the ring has doubled: one Sybil
  // per initial vnode, owners round-robin over the alive nodes.  The
  // insert-heavy growth pattern of the Sybil strategies (an Invitation
  // decision round); world build and teardown are not timed.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const Params p = make_params(nodes, 2 * nodes);
  std::uint64_t seed = 1;
  Rng rng(0);
  std::optional<World> w;
  for (auto _ : state) {
    state.PauseTiming();
    rng = Rng(seed);
    w.emplace(p, rng);
    Rng id_rng(seed * 7919);
    ++seed;
    const std::vector<dhtlb::sim::NodeIndex> owners = w->alive_indices();
    state.ResumeTiming();
    std::uint64_t acquired = 0;
    for (const auto owner : owners) {
      acquired += w->create_sybil(owner, id_rng.uniform_u160()).value_or(0);
    }
    benchmark::DoNotOptimize(acquired);
    state.PauseTiming();
    w.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScaleSybilWave)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

// Per-vnode counters of what a world holds, computed from capacities
// (not RSS), prefixed with `prefix`: the index blocks, the slot arena,
// the task-key slots against the live keys, and the physical records
// with their slot lists.
void count_bytes_per_vnode(benchmark::State& state, const World& w,
                           const std::string& prefix) {
  const FlatRing::Footprint ring = w.ring_footprint();
  std::size_t physical = 0;
  for (NodeIndex idx = 0; idx < w.physical_count(); ++idx) {
    physical += sizeof(dhtlb::sim::PhysicalNode) +
                w.physical(idx).vnode_slots.capacity() * sizeof(Slot);
  }
  const std::size_t key = sizeof(dhtlb::sim::TaskKey);
  const double vnodes = static_cast<double>(w.vnode_count());
  const auto per_vnode = [&](const char* name, std::size_t bytes) {
    state.counters[prefix + name] = static_cast<double>(bytes) / vnodes;
  };
  per_vnode("index_B", ring.index_bytes);
  per_vnode("arena_B", ring.arena_bytes);
  per_vnode("task_cap_B", ring.task_key_capacity * key);
  per_vnode("task_live_B", ring.task_keys * key);
  per_vnode("physical_B", physical);
  per_vnode("total_B", ring.index_bytes + ring.arena_bytes +
                           ring.task_key_capacity * key + physical);
}

void BM_ScaleBytesPerVnode(benchmark::State& state) {
  // Bytes per vnode of BM_ScaleCover's world, then of the same world
  // after a Sybil wave (BM_ScaleSybilWave's: one create_sybil per alive
  // node, so every insert splits an arc).  Times the accounting pass;
  // the counters are the result.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  World w(make_params(nodes, 2 * nodes), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.ring_footprint());
  }
  count_bytes_per_vnode(state, w, "");
  Rng id_rng(7919);
  for (const NodeIndex owner : std::vector<NodeIndex>(w.alive_indices())) {
    benchmark::DoNotOptimize(w.create_sybil(owner, id_rng.uniform_u160()));
  }
  count_bytes_per_vnode(state, w, "wave_");
}
BENCHMARK(BM_ScaleBytesPerVnode)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

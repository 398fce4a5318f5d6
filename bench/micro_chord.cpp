// Micro-benchmarks for the Chord protocol substrate: lookup routing cost
// (hops and messages) as the network grows, join cost, maintenance-round
// cost, and the Sybil hash-search placement the paper's ref [21] claims
// is cheap.
#include <benchmark/benchmark.h>

#include <vector>

#include "chord/network.hpp"
#include "chord/sybil_placement.hpp"
#include "hashing/sha1.hpp"
#include "support/rng.hpp"

namespace {

using dhtlb::chord::Network;
using dhtlb::chord::NodeId;
using dhtlb::hashing::Sha1;
using dhtlb::support::Rng;

Network build_network(std::size_t n, std::uint64_t seed) {
  Network net(5);
  Rng rng(seed);
  std::vector<NodeId> ids(n);
  for (NodeId& id : ids) id = Sha1::hash_u64(rng());
  net.bootstrap(ids, 4);
  return net;
}

void BM_ChordLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Network net = build_network(n, 1);
  const auto ids = net.node_ids();
  Rng rng(2);
  std::uint64_t hops = 0, lookups = 0;
  for (auto _ : state) {
    const auto res =
        net.lookup(ids[rng.below(ids.size())], rng.uniform_u160());
    hops += static_cast<std::uint64_t>(res.hops);
    ++lookups;
    benchmark::DoNotOptimize(res.owner);
  }
  state.counters["hops/lookup"] = benchmark::Counter(
      static_cast<double>(hops) / static_cast<double>(lookups));
}
BENCHMARK(BM_ChordLookup)->Arg(32)->Arg(128)->Arg(512);

void BM_ChordMaintenanceRound(benchmark::State& state) {
  Network net = build_network(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    net.maintenance_round();
  }
}
BENCHMARK(BM_ChordMaintenanceRound)->Arg(64)->Arg(256);

void BM_ChordJoinAndSettle(benchmark::State& state) {
  // Cost of one node joining an existing ring and the ring re-settling.
  // The ring is built once and grows across iterations (the growth is
  // itself representative: join cost is O(log n) in the ring size).
  Rng rng(4);
  Network net = build_network(64, 5);
  const auto bootstrap = net.node_ids().front();
  for (auto _ : state) {
    const NodeId fresh = Sha1::hash_u64(rng());
    net.join(fresh, bootstrap);
    net.stabilize(3);
    benchmark::DoNotOptimize(net.size());
  }
  state.counters["final_ring"] =
      benchmark::Counter(static_cast<double>(net.size()));
}
BENCHMARK(BM_ChordJoinAndSettle)->Unit(benchmark::kMicrosecond);

void BM_SybilHashSearch(benchmark::State& state) {
  // Placement into a 1/n-sized gap: expected n hash evaluations.  The
  // paper (via ref [21]) treats this as negligible; measure it.
  const int gap_bits = static_cast<int>(state.range(0));
  Rng rng(6);
  const auto lo = dhtlb::support::Uint160{12345};
  const auto hi = lo + dhtlb::support::Uint160::pow2(160 - gap_bits);
  std::uint64_t attempts = 0, searches = 0;
  for (auto _ : state) {
    const auto res = dhtlb::chord::place_by_hash_search(lo, hi, rng);
    attempts += res ? res->attempts : 0;
    ++searches;
    benchmark::DoNotOptimize(res);
  }
  state.counters["sha1_calls/search"] = benchmark::Counter(
      static_cast<double>(attempts) / static_cast<double>(searches));
}
BENCHMARK(BM_SybilHashSearch)->Arg(8)->Arg(10)->Arg(12);

}  // namespace

BENCHMARK_MAIN();

// Micro-benchmarks for the SHA-1 substrate: bulk throughput and the
// ID/key-generation primitive the simulator calls millions of times.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "hashing/sha1.hpp"

namespace {

using dhtlb::hashing::Sha1;

void BM_Sha1Bulk(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Bulk)->Arg(64)->Arg(1024)->Arg(64 * 1024);

void BM_Sha1HashU64(benchmark::State& state) {
  std::uint64_t counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash_u64(counter++));
  }
}
BENCHMARK(BM_Sha1HashU64);

// The bulk form world construction and task arrivals use: 4096 values
// per call, reported per hash (items/s) so it reads against
// BM_Sha1HashU64's time per hash.
void BM_Sha1HashU64Batch(benchmark::State& state) {
  std::vector<std::uint64_t> values(4096);
  std::vector<dhtlb::support::Uint160> out(values.size());
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::uint64_t& v : values) v = counter++;
    Sha1::hash_u64_batch(values, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_Sha1HashU64Batch);

void BM_Sha1IncrementalChunks(benchmark::State& state) {
  const std::string chunk(256, 'y');
  for (auto _ : state) {
    Sha1 h;
    for (int i = 0; i < 16; ++i) h.update(chunk);
    benchmark::DoNotOptimize(h.finish());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256 * 16);
}
BENCHMARK(BM_Sha1IncrementalChunks);

}  // namespace

BENCHMARK_MAIN();

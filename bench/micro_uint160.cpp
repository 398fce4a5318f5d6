// Micro-benchmarks for 160-bit ring arithmetic — the inner loop of key
// assignment, arc splits and interval tests.
#include <benchmark/benchmark.h>

#include <vector>

#include "support/ring_math.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace {

using dhtlb::support::Rng;
using dhtlb::support::Uint160;

std::vector<Uint160> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Uint160> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.uniform_u160());
  return out;
}

void BM_U160Add(benchmark::State& state) {
  const auto vals = random_values(1024, 1);
  std::size_t i = 0;
  Uint160 acc;
  for (auto _ : state) {
    acc += vals[i++ & 1023];
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_U160Add);

void BM_U160Sub(benchmark::State& state) {
  // Random operands borrow between limbs about half the time — the
  // clockwise-distance step of every route() hop.
  const auto vals = random_values(1024, 7);
  std::size_t i = 0;
  Uint160 acc;
  for (auto _ : state) {
    acc -= vals[i++ & 1023];
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_U160Sub);

void BM_U160BitLength(benchmark::State& state) {
  // Widths spread over all 160 bits, so the highest nonzero limb varies.
  Rng rng(8);
  std::vector<Uint160> vals;
  vals.reserve(1024);
  for (int k = 0; k < 1024; ++k) {
    vals.push_back(rng.uniform_u160().shr(static_cast<int>(rng.below(160))));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vals[i++ & 1023].bit_length());
  }
}
BENCHMARK(BM_U160BitLength);

void BM_U160Compare(benchmark::State& state) {
  const auto vals = random_values(1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vals[i & 1023] < vals[(i + 1) & 1023]);
    ++i;
  }
}
BENCHMARK(BM_U160Compare);

void BM_U160HalfOpenArcTest(benchmark::State& state) {
  const auto vals = random_values(3 * 1024, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t b = (i % 1024) * 3;
    benchmark::DoNotOptimize(dhtlb::support::in_half_open_arc(
        vals[b], vals[b + 1], vals[b + 2]));
    ++i;
  }
}
BENCHMARK(BM_U160HalfOpenArcTest);

void BM_U160HexRoundTrip(benchmark::State& state) {
  const auto vals = random_values(64, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Uint160::from_hex(vals[i++ & 63].to_hex()));
  }
}
BENCHMARK(BM_U160HexRoundTrip);

void BM_RngUniformU160(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u160());
  }
}
BENCHMARK(BM_RngUniformU160);

void BM_RngUniformInArc(benchmark::State& state) {
  Rng rng(6);
  const Uint160 lo{1000};
  const Uint160 hi = Uint160::pow2(140);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_in_arc(lo, hi));
  }
}
BENCHMARK(BM_RngUniformInArc);

}  // namespace

BENCHMARK_MAIN();

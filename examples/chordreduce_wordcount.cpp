// ChordReduce-style MapReduce word count — the paper's motivating use
// case (§II): a MapReduce job organized entirely by a DHT, with the
// map/shuffle/reduce phases timed on the tick simulator under different
// balancing strategies.
//
// The computation is real: a synthetic corpus is chunked, each chunk is
// keyed by SHA-1 (chunk key = map-task key), intermediate words hash to
// reducer keys, and the final counts are verified against a serial word
// count.  The *timing* of each phase comes from the simulator, where
// the chunk/reducer keys land on node arcs exactly as the data would.
//
// Usage: chordreduce_wordcount [nodes] [chunks]
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "hashing/sha1.hpp"
#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace dhtlb;

// A tiny Zipf-flavored vocabulary: common words dominate, like real text.
std::string pick_word(support::Rng& rng) {
  static const char* kVocab[] = {
      "the",  "of",    "and",   "to",      "in",     "a",       "is",
      "that", "chord", "node",  "task",    "ring",   "key",     "hash",
      "load", "sybil", "churn", "balance", "worker", "overlay"};
  constexpr std::size_t kN = sizeof(kVocab) / sizeof(kVocab[0]);
  // P(word i) ~ 1/(i+1): sample by rejection on the harmonic envelope.
  for (;;) {
    const std::size_t i = static_cast<std::size_t>(rng.below(kN));
    if (rng.uniform() < 1.0 / static_cast<double>(i + 1)) return kVocab[i];
  }
}

sim::RunResult time_phase(std::size_t nodes, std::uint64_t tasks,
                          const char* strategy, std::uint64_t seed) {
  sim::Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  if (std::string_view(strategy) == "churn") p.churn_rate = 0.01;
  sim::Engine engine(p, seed, lb::make_strategy(strategy));
  return engine.run();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 0;
  std::size_t chunks = 0;
  try {
    nodes = support::positional_count(argc, argv, 1, "nodes", 200);
    chunks = support::positional_count(argc, argv, 2, "chunks", 20'000);
    sim::Params p;
    p.initial_nodes = nodes;
    p.total_tasks = chunks;
    p.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "chordreduce_wordcount: %s\n", e.what());
    return 1;
  }
  const std::size_t words_per_chunk = 40;
  const std::size_t reducers = nodes * 4;
  const std::uint64_t seed = support::env_seed();

  std::printf("job: %zu chunks x %zu words over %zu nodes, %zu reducers\n\n",
              chunks, words_per_chunk, nodes, reducers);

  // --- the actual computation (verified) ---------------------------------
  support::Rng rng(seed);
  std::map<std::string, std::uint64_t> truth;       // serial word count
  std::map<std::string, std::uint64_t> mapreduced;  // via map/shuffle/reduce
  std::vector<std::map<std::string, std::uint64_t>> reducer_inbox(reducers);

  for (std::size_t c = 0; c < chunks; ++c) {
    // Map task: count words within the chunk.
    std::map<std::string, std::uint64_t> local;
    for (std::size_t w = 0; w < words_per_chunk; ++w) {
      const std::string word = pick_word(rng);
      ++truth[word];
      ++local[word];
    }
    // Shuffle: each word's counts go to the reducer owning SHA1(word).
    for (const auto& [word, count] : local) {
      const auto key = hashing::Sha1::hash_to_ring(word);
      reducer_inbox[static_cast<std::size_t>(key.low64() % reducers)]
          [word] += count;
    }
  }
  for (const auto& inbox : reducer_inbox) {
    for (const auto& [word, count] : inbox) mapreduced[word] += count;
  }
  const bool correct = truth == mapreduced;
  std::printf("map/shuffle/reduce result %s the serial word count "
              "(%zu distinct words, %llu total)\n\n",
              correct ? "MATCHES" : "DIFFERS FROM", truth.size(),
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(chunks) * words_per_chunk));

  // --- phase timing on the DHT -------------------------------------------
  // Map phase: one task per chunk; reduce phase: one task per reducer
  // key group.  Both key sets are SHA-1 placed, so both phases suffer
  // the same arc skew — and both benefit from balancing.
  support::TextTable table({"strategy", "map ticks", "map factor",
                            "reduce ticks", "reduce factor",
                            "job speedup vs none"});
  double none_total = 0.0;
  for (const char* strategy :
       {"none", "churn", "random-injection", "invitation"}) {
    const auto map_phase =
        time_phase(nodes, chunks, strategy, support::mix_seed(seed, 1));
    const auto reduce_phase =
        time_phase(nodes, reducers, strategy, support::mix_seed(seed, 2));
    const double total =
        static_cast<double>(map_phase.ticks + reduce_phase.ticks);
    if (std::string_view(strategy) == "none") none_total = total;
    table.add_row(
        {strategy, std::to_string(map_phase.ticks),
         support::format_fixed(map_phase.runtime_factor, 2),
         std::to_string(reduce_phase.ticks),
         support::format_fixed(reduce_phase.runtime_factor, 2),
         support::format_fixed(none_total / total, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(map phase dominates: %zu chunks vs %zu reducer groups; "
              "the churn row runs at rate 0.01 per tick, the §VI-A "
              "setting)\n",
              chunks, reducers);
  return correct ? 0 : 1;
}

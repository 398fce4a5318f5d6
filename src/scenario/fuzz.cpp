#include "scenario/fuzz.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "lb/factory.hpp"
#include "support/rng.hpp"

namespace dhtlb::scenario {

namespace {

using support::Rng;

/// Dedicated generator stream label: decorrelates the script-shape
/// draws from every engine/VM stream the generated script will consume
/// when it runs under the same numeric seed.
constexpr std::uint64_t kFuzzStream = 0xF0220116E2A70ULL;

struct ProfileSpec {
  std::string_view name;
  Substrate substrate;
  // Weighted kind pool: duplicates raise a kind's draw probability.
  std::vector<Event::Kind> kinds;
};

using K = Event::Kind;

const std::vector<ProfileSpec>& profile_specs() {
  static const std::vector<ProfileSpec> specs = {
      // Churn spikes and relaxations layered over membership drift.
      {"churn-burst",
       Substrate::kSim,
       {K::kSetChurn, K::kSetChurn, K::kJoin, K::kLeave, K::kInjectUniform}},
      // Membership storms: mass joins, graceful exoduses, crash waves.
      {"storm",
       Substrate::kSim,
       {K::kJoin, K::kJoin, K::kLeave, K::kLeave, K::kCrash}},
      // Skewed floods concentrated on narrow ring arcs.
      {"hotspot",
       Substrate::kSim,
       {K::kInjectHotspot, K::kInjectHotspot, K::kInjectUniform}},
      // Strategy hot-swaps and threshold re-parameterization mid-run.
      {"strategy-swap",
       Substrate::kSim,
       {K::kSetStrategy, K::kSetStrategy, K::kSetThreshold, K::kJoin,
        K::kInjectUniform}},
      // Chord substrate: message-fault storms under lookups and churn.
      {"chord-faults",
       Substrate::kChord,
       {K::kFault, K::kFault, K::kLookup, K::kJoin, K::kLeave, K::kCrash}},
      // Streamed provisioning under membership and injection pressure.
      {"streamed",
       Substrate::kSim,
       {K::kJoin, K::kLeave, K::kCrash, K::kInjectUniform,
        K::kInjectHotspot}},
      // The campaign default: the whole sim vocabulary.
      {"mixed",
       Substrate::kSim,
       {K::kJoin, K::kLeave, K::kCrash, K::kInjectUniform,
        K::kInjectHotspot, K::kSetChurn, K::kSetThreshold, K::kSetStrategy}},
  };
  return specs;
}

const ProfileSpec& find_profile(std::string_view profile) {
  for (const ProfileSpec& spec : profile_specs()) {
    if (spec.name == profile) return spec;
  }
  throw std::invalid_argument("unknown fuzz profile: " +
                              std::string(profile));
}

/// A strategy name drawn by table index — hot-swap targets and header
/// picks.  The table order therefore reaches generated scripts.
std::string random_strategy_name(Rng& rng) {
  const auto table = lb::strategy_table();
  return std::string(table[rng.below(table.size())].name);
}

/// An event of a kind drawn from the profile's weighted pool.
Event random_event(const ProfileSpec& spec, Rng& rng, const Script& script) {
  Event event;
  event.kind = spec.kinds[rng.below(spec.kinds.size())];
  const std::uint64_t nodes = script.params.initial_nodes;
  switch (event.kind) {
    case K::kJoin:
      event.count = 1 + rng.below(std::max<std::uint64_t>(1, nodes / 4));
      break;
    case K::kLeave:
    case K::kCrash:
      event.count = 1 + rng.below(std::max<std::uint64_t>(1, nodes / 8));
      break;
    case K::kInjectUniform:
    case K::kInjectHotspot:
      event.count = 1 + rng.below(2000);
      // Hotspots take narrow arcs, (0, 1/8] of the ring, in 1/256 steps.
      if (event.kind == K::kInjectUniform) break;
      event.value = static_cast<double>(1 + rng.below(32)) / 256.0;
      break;
    case K::kSetChurn:
      // 0 .. 0.1 in exact 1/400 steps: hard enough to stress churn
      // folds, low enough that scripts never degenerate.
      event.value = static_cast<double>(rng.below(41)) / 400.0;
      break;
    case K::kSetThreshold:
      event.count = rng.below(64);
      break;
    case K::kSetStrategy:
      event.text = random_strategy_name(rng);
      break;
    case K::kFault:
      event.text = fault_kinds()[rng.below(fault_kinds().size())].name;
      event.value = static_cast<double>(rng.below(26)) / 100.0;  // <= 0.25
      break;
    case K::kLookup:
      event.count = 1 + rng.below(32);
      break;
  }
  return event;
}

}  // namespace

std::vector<std::string_view> fuzz_profiles() {
  std::vector<std::string_view> names;
  for (const ProfileSpec& spec : profile_specs()) names.push_back(spec.name);
  return names;
}

bool is_fuzz_profile(std::string_view profile) {
  return std::ranges::find(profile_specs(), profile, &ProfileSpec::name) !=
         profile_specs().end();
}

Script generate_script(std::string_view profile, std::uint64_t seed) {
  const ProfileSpec& spec = find_profile(profile);
  Rng rng(support::stream_seed(seed, kFuzzStream));
  const bool chord = spec.substrate == Substrate::kChord;

  Script script;
  script.name = "fuzz_" + std::string(spec.name) + "_" +
                std::to_string(seed);
  script.substrate = spec.substrate;
  // The script carries its own seed, so (profile, seed) alone reproduces
  // the run — the repro line in failure artifacts relies on this.
  script.seed = seed;
  script.seed_set = true;

  if (chord) {
    // Chord rounds cost O(n log n) messages each; keep the protocol
    // runs small so a batch of hundreds stays inside the wall budget.
    script.horizon = 20 + rng.below(41);                    // 20..60
    script.params.initial_nodes = 16 + rng.below(49);       // 16..64
    script.params.num_successors = 2 + rng.below(5);        // 2..6
  } else {
    script.horizon = 40 + rng.below(161);                   // 40..200
    script.params.initial_nodes = 16 + rng.below(241);      // 16..256
    script.params.num_successors = 2 + rng.below(7);        // 2..8
    script.params.total_tasks = 1000 + rng.below(19001);    // 1k..20k
    script.params.max_sybils = 1 + static_cast<unsigned>(rng.below(8));
    script.params.sybil_threshold = rng.below(51);
    script.params.decision_period = 1 + rng.below(10);
    script.params.heterogeneous = rng.bernoulli(0.25);
    script.params.work_measure = rng.bernoulli(0.25)
                                     ? sim::WorkMeasure::kStrengthPerTick
                                     : sim::WorkMeasure::kOneTaskPerTick;
    if (spec.name == "storm") {
      script.params.churn_rate = 0.0;  // storms are scripted, not ambient
    } else {
      script.params.churn_rate =
          static_cast<double>(rng.below(21)) / 400.0;  // 0 .. 0.05
    }
    const bool streamed =
        spec.name == "streamed" || (spec.name == "mixed" && rng.bernoulli(0.3));
    if (streamed) {
      script.params.provisioning = sim::TaskProvisioning::kStreamed;
      // 0 = the auto window (ideal runtime); otherwise spread arrivals
      // over up to twice the horizon to exercise post-horizon cutoffs.
      const std::uint64_t pick = rng.below(3);
      script.params.arrival_ticks = pick == 0 ? 0 : pick * script.horizon;
    }
    script.strategy = random_strategy_name(rng);
  }

  // `at` blocks need strictly increasing ticks within [1, horizon]:
  // sample, sort, dedupe, then attach events in order.
  const std::size_t n_at = 2 + rng.below(5);  // 2..6 one-shot blocks
  std::vector<std::uint64_t> at_ticks;
  for (std::size_t i = 0; i < n_at; ++i) {
    at_ticks.push_back(1 + rng.below(script.horizon));
  }
  std::sort(at_ticks.begin(), at_ticks.end());
  at_ticks.erase(std::unique(at_ticks.begin(), at_ticks.end()),
                 at_ticks.end());
  for (const std::uint64_t tick : at_ticks) {
    Block block;
    block.recurring = false;
    block.at = tick;
    for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {  // 1..3 events
      block.events.push_back(random_event(spec, rng, script));
    }
    script.blocks.push_back(std::move(block));
  }

  // Recurring blocks: valid anywhere between the `at` blocks (only the
  // one-shot ticks are order-constrained), so splice them at random
  // positions to keep the interleaved grammar exercised.
  const std::size_t n_every = 1 + rng.below(3);  // 1..3 recurring blocks
  for (std::size_t i = 0; i < n_every; ++i) {
    Block block;
    block.recurring = true;
    block.at = 1 + rng.below(script.horizon / 4 + 1);
    block.from = 1 + rng.below(script.horizon);
    block.until = block.from + rng.below(script.horizon - block.from + 1);
    for (std::uint64_t n = 1 + rng.below(2); n > 0; --n) {  // 1..2 events
      block.events.push_back(random_event(spec, rng, script));
    }
    const std::size_t pos = rng.below(script.blocks.size() + 1);
    script.blocks.insert(
        script.blocks.begin() + static_cast<std::ptrdiff_t>(pos),
        std::move(block));
  }
  return script;
}

std::string emit_script(const Script& script) {
  const bool sim = script.substrate == Substrate::kSim;
  std::string out;
  auto line = [&out](std::string_view key, const std::string& value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  };
  line("name", script.name);
  line("substrate", sim ? "sim" : "chord");
  if (script.seed_set) line("seed", std::to_string(script.seed));
  if (script.horizon != 0) line("ticks", std::to_string(script.horizon));
  // Params lines from the field table: the chord keys first, then (sim
  // only) the strategy and every other field in table order.
  const auto param_lines = [&](bool chord) {
    for (const sim::ParamField& field : sim::param_fields()) {
      if (field.chord == chord && field.applies(script.params)) {
        line(field.key, script.params.format(field.key));
      }
    }
  };
  param_lines(/*chord=*/true);
  if (sim) {
    line("strategy", script.strategy);
    param_lines(/*chord=*/false);
  }

  for (const Block& block : script.blocks) {
    out += '\n';
    if (block.recurring) {
      out += "every " + std::to_string(block.at) + " from " +
             std::to_string(block.from);
      if (block.until != 0) out += " until " + std::to_string(block.until);
      out += '\n';
    } else {
      out += "at " + std::to_string(block.at) + '\n';
    }
    for (const Event& event : block.events) {
      out += "  " + format_event(event) + '\n';
    }
    out += "end\n";
  }
  return out;
}

namespace {

/// Re-parses a shrink candidate through the canonical text form so the
/// predicate only ever sees scripts a `.scn` file could express.
std::optional<Script> revalidate(const Script& candidate) {
  try {
    return Script::parse(emit_script(candidate), "<shrink>");
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace

Script shrink_script(const Script& script,
                     const std::function<bool(const Script&)>& still_fails) {
  Script best = script;
  if (!still_fails(best)) return best;  // nothing to preserve

  // Phase 1: ddmin over whole blocks.  Removing any subset of blocks
  // keeps the remaining `at` ticks strictly increasing, so candidates
  // only ever fail revalidation for unrelated reasons (none today).
  std::size_t chunk = std::max<std::size_t>(1, best.blocks.size() / 2);
  for (;;) {
    bool removed = false;
    for (std::size_t start = 0; start < best.blocks.size();) {
      Script candidate = best;
      const auto first =
          candidate.blocks.begin() + static_cast<std::ptrdiff_t>(start);
      const auto last =
          candidate.blocks.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(start + chunk, candidate.blocks.size()));
      candidate.blocks.erase(first, last);
      const auto parsed = revalidate(candidate);
      if (parsed && still_fails(*parsed)) {
        best = *parsed;
        removed = true;  // retry the same start against the shorter list
      } else {
        start += chunk;
      }
    }
    if (best.blocks.empty() || (chunk == 1 && !removed)) break;
    if (!removed) chunk = std::max<std::size_t>(1, chunk / 2);
  }

  // Phase 2: greedy per-event trimming inside the surviving blocks.
  // Never empties a block (the grammar forbids empty blocks); phase 1
  // already probed dropping each block outright.
  for (std::size_t b = 0; b < best.blocks.size(); ++b) {
    for (std::size_t e = 0;
         best.blocks[b].events.size() > 1 && e < best.blocks[b].events.size();
         ) {
      Script candidate = best;
      candidate.blocks[b].events.erase(
          candidate.blocks[b].events.begin() +
          static_cast<std::ptrdiff_t>(e));
      const auto parsed = revalidate(candidate);
      if (parsed && still_fails(*parsed)) {
        best = *parsed;
      } else {
        ++e;
      }
    }
  }
  return best;
}

}  // namespace dhtlb::scenario

#include "scenario/vm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chord/network.hpp"
#include "hashing/sha1.hpp"
#include "lb/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dhtlb::scenario {

namespace {

using support::Rng;
using support::Uint160;

// Stream label for the VM's own RNG, mixed with the run seed so the
// VM's draws never alias the engine's (which uses the raw seed).
constexpr std::uint64_t kVmStream = 0x5CE11A710ULL;  // "scenario"

/// Does `block` fire at `tick`?
bool fires(const Block& b, std::uint64_t tick) {
  if (!b.recurring) return b.at == tick;
  return tick >= b.from && tick <= b.until && (tick - b.from) % b.at == 0;
}

/// Is any block still scheduled strictly after `tick`?  Keeps a drained
/// sim engine ticking idle toward future events.
bool pending_after(const Script& script, std::uint64_t tick) {
  for (const Block& b : script.blocks) {
    if (!b.recurring) {
      if (b.at > tick) return true;
      continue;
    }
    if (tick < b.from) return true;
    // Next eligible recurrence after `tick`.
    const std::uint64_t next = b.from + ((tick - b.from) / b.at + 1) * b.at;
    if (next <= b.until) return true;
  }
  return false;
}

/// Without a `ticks` horizon the engine stops at its safety cap, so a
/// block scheduled past the cap would idle the run to the cap and never
/// fire (or never finish).  Rejects such a script before tick 1.
void check_reachable(const Script& script, std::uint64_t cap) {
  if (script.horizon != 0) return;  // the parser bounds blocks by it
  for (const Block& b : script.blocks) {
    const std::uint64_t last = b.recurring ? b.until : b.at;
    if (last <= cap) continue;
    throw std::runtime_error(
        "line " + std::to_string(b.line) + ": block scheduled through tick " +
        std::to_string(last) + " lies past the engine's tick cap " +
        std::to_string(cap) +
        " (max(200 x ideal runtime, 10000) without a horizon); schedule it "
        "earlier or add a 'ticks' horizon of at least " +
        std::to_string(last));
  }
}

/// Ring arc width covering `fraction` of the 2^160 key space, computed
/// as max() * round(fraction * 2^32) / 2^32 in fixed point.  Returns
/// nullopt when the fraction rounds to the whole ring (use a uniform
/// draw instead).
std::optional<Uint160> arc_width(double fraction) {
  const double scaled = std::round(fraction * 4294967296.0);
  if (scaled >= 4294967296.0) return std::nullopt;
  auto scale = static_cast<std::uint32_t>(scaled);
  if (scale == 0) scale = 1;  // parser guarantees fraction > 0
  return Uint160::max().shr(32).mul_small(scale);
}

/// One instant per scripted event, emitted as the event applies so it
/// lands on the tick it mutates.
void trace_scripted(obs::TraceSink& trace, const Event& e) {
  trace.instant(trace_label(e.kind), "scenario",
                {{"count", e.count}, {"value", e.value}, {"text", e.text}});
}

double d(std::uint64_t v) { return static_cast<double>(v); }

void push(ScenarioResult& out, const std::string& cell,
          const std::string& metric, double value, std::uint64_t seed) {
  out.records.push_back({out.experiment, cell, metric, value, seed, 1});
}

/// Tallies of the scripted events applied; each substrate fills its own.
struct Counters {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t crashes = 0;
  std::uint64_t injected = 0;  // sim
  std::uint64_t lookups = 0;   // chord, as are the two below
  std::uint64_t lookup_hops = 0;
  std::uint64_t lookups_correct = 0;
};

// --- sim substrate --------------------------------------------------------

/// Injects `count` keys from `draw()` through World::inject_tasks, in
/// batches of at most kInjectBatch keys so a large event's scratch stays
/// bounded.  The draws never read the world, and each batch appends in
/// draw order, so batching leaves every store as one-by-one injection
/// would.
template <typename Draw>
void inject_drawn(sim::World& world, std::uint64_t count, Draw&& draw) {
  constexpr std::uint64_t kInjectBatch = std::uint64_t{1} << 20;
  std::vector<Uint160> keys;
  keys.reserve(static_cast<std::size_t>(std::min(count, kInjectBatch)));
  while (count > 0) {
    const std::uint64_t batch = std::min(count, kInjectBatch);
    keys.clear();
    for (std::uint64_t i = 0; i < batch; ++i) keys.push_back(draw());
    world.inject_tasks(keys);
    count -= batch;
  }
}

void apply_sim_event(const Event& e, sim::Engine& engine, Rng& rng,
                     Counters& counters) {
  sim::World& world = engine.world();
  switch (e.kind) {
    case Event::Kind::kJoin:
      // Placement IDs come from the VM's own stream, so a scripted join
      // perturbs neither the engine's churn streams nor the world's
      // construction RNG.
      for (std::uint64_t i = 0; i < e.count; ++i) {
        if (!world.join_from_pool(rng)) break;  // waiting pool exhausted
        ++counters.joins;
      }
      break;
    case Event::Kind::kLeave:
    case Event::Kind::kCrash:
      // Under active backup a crash is task-equivalent to a graceful
      // leave: the successor already holds the tasks either way (§IV-A).
      for (std::uint64_t i = 0; i < e.count; ++i) {
        if (world.alive_count() <= 1) break;  // never empty the ring
        const auto& alive = world.alive_indices();
        const sim::NodeIndex victim = alive[rng.below(alive.size())];
        if (!world.depart(victim)) break;
        ++(e.kind == Event::Kind::kLeave ? counters.leaves
                                         : counters.crashes);
      }
      break;
    case Event::Kind::kInjectUniform:
      inject_drawn(world, e.count, [&] { return rng.uniform_u160(); });
      counters.injected += e.count;
      break;
    case Event::Kind::kInjectHotspot: {
      const Uint160 start = rng.uniform_u160();
      const auto width = arc_width(e.value);
      inject_drawn(world, e.count, [&] {
        return width ? rng.uniform_in_arc(start, start + *width)
                     : rng.uniform_u160();
      });
      counters.injected += e.count;
      break;
    }
    case Event::Kind::kSetChurn:
      world.set_churn_rate(e.value);
      break;
    case Event::Kind::kSetThreshold:
      world.set_sybil_threshold(e.count);
      break;
    case Event::Kind::kSetStrategy:
      engine.set_strategy(lb::make_strategy(e.text));
      break;
    default:
      DHTLB_CHECK(false, "sim substrate received a chord-only event "
                             << static_cast<int>(e.kind)
                             << " (parser validation hole)");
  }
}

ScenarioResult run_sim(const Script& script, std::uint64_t seed,
                       bool audit, const ObsSinks& sinks) {
  sim::Params params = script.params;
  if (script.horizon > 0) params.max_ticks = script.horizon;

  sim::Engine engine(params, seed, lb::make_strategy(script.strategy));
  check_reachable(script, params.effective_max_ticks(engine.ideal_ticks()));
  if (audit) engine.set_audit(true);
  engine.set_trace(sinks.trace);
  engine.set_metrics(sinks.metrics);
  if (sinks.configure_engine) sinks.configure_engine(engine);
  Rng vm_rng(support::mix_seed(seed, kVmStream));
  Counters counters;

  engine.set_pre_tick_hook([&](std::uint64_t tick) {
    bool applied = false;
    for (const Block& b : script.blocks) {
      if (!fires(b, tick)) continue;
      for (const Event& e : b.events) {
        // The engine advanced the trace clock to `tick` before calling
        // this hook, so the instant lands on the right tick.
        if (sinks.trace) trace_scripted(*sinks.trace, e);
        apply_sim_event(e, engine, vm_rng, counters);
      }
      applied = true;
    }
    return applied || pending_after(script, tick);
  });

  const sim::RunResult result = engine.run();
  const sim::World& world = engine.world();

  ScenarioResult out;
  out.experiment = "scenario_" + script.name;
  const std::string cell = "sim";
  push(out, cell, "ticks", d(result.ticks), seed);
  push(out, cell, "ideal_ticks", d(result.ideal_ticks), seed);
  push(out, cell, "runtime_factor", result.runtime_factor, seed);
  push(out, cell, "completed", result.completed ? 1.0 : 0.0, seed);
  push(out, cell, "avg_work_per_tick", result.avg_work_per_tick, seed);
  push(out, cell, "churn_joins", d(result.joins), seed);
  push(out, cell, "churn_leaves", d(result.leaves), seed);
  push(out, cell, "scripted_joins", d(counters.joins), seed);
  push(out, cell, "scripted_leaves", d(counters.leaves), seed);
  push(out, cell, "scripted_crashes", d(counters.crashes), seed);
  push(out, cell, "injected_tasks", d(counters.injected), seed);
  push(out, cell, "total_tasks", d(world.total_tasks()), seed);
  push(out, cell, "remaining_tasks", d(world.remaining_tasks()), seed);
  push(out, cell, "final_alive", d(world.alive_count()), seed);
  push(out, cell, "final_vnodes", d(world.vnode_count()), seed);
  push(out, cell, "sybils_created",
       d(result.strategy_counters.sybils_created), seed);
  push(out, cell, "sybils_retired",
       d(result.strategy_counters.sybils_retired), seed);

  // Final load shape: max/mean over alive nodes (1.0 = perfectly even).
  const std::vector<std::uint64_t> loads = world.alive_workloads();
  const std::uint64_t max_load = loads.empty() ? 0 : std::ranges::max(loads);
  const std::uint64_t sum_load =
      std::accumulate(loads.begin(), loads.end(), std::uint64_t{0});
  const double mean_load =
      loads.empty() ? 0.0 : d(sum_load) / d(loads.size());
  push(out, cell, "final_max_load", d(max_load), seed);
  push(out, cell, "final_mean_load", mean_load, seed);
  return out;
}

// --- chord substrate ------------------------------------------------------

chord::NodeId pick_node(const std::vector<chord::NodeId>& ids, Rng& rng) {
  DHTLB_CHECK(!ids.empty(), "scenario: chord ring is empty");
  return ids[rng.below(ids.size())];
}

/// The next sequential SHA-1 id not yet `taken`: the one fresh-id rule
/// of the bootstrap and of `join` events.
chord::NodeId fresh_id(std::uint64_t& next_id, const auto& taken) {
  chord::NodeId id = hashing::Sha1::hash_u64(next_id++);
  while (taken(id)) id = hashing::Sha1::hash_u64(next_id++);
  return id;
}

void apply_chord_event(const Event& e, chord::Network& net, Rng& rng,
                       std::uint64_t& next_id, Counters& counters,
                       chord::FaultConfig& faults) {
  switch (e.kind) {
    case Event::Kind::kJoin:
      for (std::uint64_t i = 0; i < e.count; ++i) {
        const chord::NodeId id = fresh_id(
            next_id, [&](const chord::NodeId& c) { return net.contains(c); });
        if (net.join(id, pick_node(net.node_ids(), rng))) ++counters.joins;
      }
      break;
    case Event::Kind::kLeave:
      for (std::uint64_t i = 0; i < e.count; ++i) {
        if (net.size() <= 1) break;
        net.leave(pick_node(net.node_ids(), rng));
        ++counters.leaves;
      }
      break;
    case Event::Kind::kCrash:
      for (std::uint64_t i = 0; i < e.count; ++i) {
        if (net.size() <= 1) break;
        net.fail(pick_node(net.node_ids(), rng));
        ++counters.crashes;
      }
      break;
    case Event::Kind::kLookup: {
      // Lookups change no membership, so one id list serves the event.
      const std::vector<chord::NodeId> ids = net.node_ids();
      for (std::uint64_t i = 0; i < e.count; ++i) {
        const Uint160 key = rng.uniform_u160();
        const chord::NodeId truth = net.true_owner(key);
        const chord::LookupResult res = net.lookup(pick_node(ids, rng), key);
        ++counters.lookups;
        counters.lookup_hops += static_cast<std::uint64_t>(res.hops);
        if (res.owner == truth) ++counters.lookups_correct;
      }
      break;
    }
    case Event::Kind::kFault:
      for (const FaultKind& kind : fault_kinds()) {
        if (kind.name == e.text) faults.*kind.probability = e.value;
      }
      net.set_faults(faults);
      break;
    default:
      DHTLB_CHECK(false, "chord substrate received a sim-only event "
                             << static_cast<int>(e.kind)
                             << " (parser validation hole)");
  }
}

/// Each chord message kind's metric and MessageStats field.
constexpr std::pair<std::string_view, std::uint64_t chord::MessageStats::*>
    kMessageKinds[] = {
        {"msgs_find_successor", &chord::MessageStats::find_successor},
        {"msgs_get_predecessor", &chord::MessageStats::get_predecessor},
        {"msgs_get_successor_list", &chord::MessageStats::get_successor_list},
        {"msgs_notify", &chord::MessageStats::notify},
        {"msgs_ping", &chord::MessageStats::ping}};

/// Chord-side instruments, registered once per run; the VM is the
/// maintenance-loop driver, so it also owns per-tick sampling.
struct ChordInstruments {
  obs::MetricsRegistry::Id nodes = 0;
  obs::MetricsRegistry::Id ring_consistent = 0;
  obs::MetricsRegistry::Id delayed_pending = 0;
  obs::MetricsRegistry::Id msgs_total = 0;
  obs::MetricsRegistry::Id msgs[std::size(kMessageKinds)] = {};
  obs::MetricsRegistry::Id lookups = 0;
  obs::MetricsRegistry::Id lookup_hops = 0;

  static ChordInstruments register_on(obs::MetricsRegistry& m) {
    ChordInstruments ids;
    ids.nodes = m.gauge("nodes", "nodes");
    ids.ring_consistent = m.gauge("ring_consistent", "bool");
    ids.delayed_pending = m.gauge("delayed_pending", "messages");
    ids.msgs_total = m.counter("msgs_total", "messages");
    for (std::size_t i = 0; i < std::size(kMessageKinds); ++i) {
      ids.msgs[i] = m.counter(kMessageKinds[i].first, "messages");
    }
    ids.lookups = m.counter("lookups", "lookups");
    ids.lookup_hops = m.counter("lookup_hops", "hops");
    return ids;
  }
};

ScenarioResult run_chord(const Script& script, std::uint64_t seed,
                         const ObsSinks& sinks) {
  chord::Network net(script.params.num_successors);
  Rng vm_rng(support::mix_seed(seed, kVmStream));

  // Bootstrap: sequential SHA-1 IDs, settled until the successor lists
  // fill.  All of this happens before faults can be enabled, so the
  // starting ring is consistent regardless of the script.
  std::uint64_t next_id = 0;
  std::vector<chord::NodeId> initial;
  initial.reserve(script.params.initial_nodes);
  while (initial.size() < script.params.initial_nodes) {
    initial.push_back(fresh_id(next_id, [&](const chord::NodeId& c) {
      return std::ranges::find(initial, c) != initial.end();
    }));
  }
  net.bootstrap(initial, static_cast<int>(script.params.num_successors) + 2);
  DHTLB_CHECK(net.ring_consistent(),
              "scenario: chord bootstrap left an inconsistent ring");

  // Measurement starts here: bootstrap traffic is construction noise
  // and deliberately excluded from both telemetry and traces.
  net.stats().reset();
  net.set_fault_seed(support::mix_seed(seed, kVmStream + 1));
  net.set_trace(sinks.trace);
  ChordInstruments ids;
  if (sinks.metrics) ids = ChordInstruments::register_on(*sinks.metrics);
  chord::MessageStats prev_stats;
  Counters prev_counters;

  Counters counters;
  chord::FaultConfig faults;
  for (std::uint64_t tick = 1; tick <= script.horizon; ++tick) {
    if (sinks.trace) sinks.trace->set_tick(tick);
    for (const Block& b : script.blocks) {
      if (!fires(b, tick)) continue;
      for (const Event& e : b.events) {
        if (sinks.trace) trace_scripted(*sinks.trace, e);
        apply_chord_event(e, net, vm_rng, next_id, counters, faults);
      }
    }
    net.maintenance_round();
    if (sinks.metrics || sinks.trace) {
      const chord::MessageStats& s = net.stats();
      if (sinks.metrics) {
        obs::MetricsRegistry& m = *sinks.metrics;
        m.set(ids.nodes, d(net.size()));
        m.set(ids.ring_consistent, net.ring_consistent() ? 1.0 : 0.0);
        m.set(ids.delayed_pending, d(net.delayed_messages().size()));
        m.add(ids.msgs_total, d(s.total() - prev_stats.total()));
        for (std::size_t i = 0; i < std::size(kMessageKinds); ++i) {
          const auto field = kMessageKinds[i].second;
          m.add(ids.msgs[i], d(s.*field - prev_stats.*field));
        }
        m.add(ids.lookups, d(counters.lookups - prev_counters.lookups));
        m.add(ids.lookup_hops,
              d(counters.lookup_hops - prev_counters.lookup_hops));
        m.sample(tick);
      }
      if (sinks.trace) {
        sinks.trace->counter("nodes", d(net.size()));
        sinks.trace->counter("msgs_per_tick",
                             d(s.total() - prev_stats.total()));
        sinks.trace->counter("delayed_pending",
                             d(net.delayed_messages().size()));
        sinks.trace->complete_tick(
            "tick", {{"msgs", s.total() - prev_stats.total()},
                     {"nodes", net.size()}});
      }
      prev_stats = s;
      prev_counters = counters;
    }
  }
  net.set_trace(nullptr);

  ScenarioResult out;
  out.experiment = "scenario_" + script.name;
  const std::string cell = "chord";
  push(out, cell, "ticks", d(script.horizon), seed);
  push(out, cell, "final_nodes", d(net.size()), seed);
  push(out, cell, "ring_consistent", net.ring_consistent() ? 1.0 : 0.0,
       seed);
  push(out, cell, "scripted_joins", d(counters.joins), seed);
  push(out, cell, "scripted_leaves", d(counters.leaves), seed);
  push(out, cell, "scripted_crashes", d(counters.crashes), seed);
  push(out, cell, "lookups", d(counters.lookups), seed);
  push(out, cell, "lookup_hops_total", d(counters.lookup_hops), seed);
  push(out, cell, "lookup_hops_mean",
       counters.lookups == 0
           ? 0.0
           : d(counters.lookup_hops) / d(counters.lookups),
       seed);
  push(out, cell, "lookups_correct", d(counters.lookups_correct), seed);
  const chord::MessageStats& stats = net.stats();
  for (const auto& [metric, field] : kMessageKinds) {
    push(out, cell, std::string(metric), d(stats.*field), seed);
  }
  push(out, cell, "msgs_total", d(stats.total()), seed);
  return out;
}

}  // namespace

ScenarioResult run_scenario(const Script& script, std::uint64_t seed,
                            bool audit, const ObsSinks& sinks) {
  return script.substrate == Substrate::kSim
             ? run_sim(script, seed, audit, sinks)
             : run_chord(script, seed, sinks);
}

std::uint64_t resolve_seed(const Script& script, bool cli_seed_set,
                           std::uint64_t cli_seed, std::uint64_t fallback) {
  if (cli_seed_set) return cli_seed;
  if (script.seed_set) return script.seed;
  return fallback;
}

}  // namespace dhtlb::scenario

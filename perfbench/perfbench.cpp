// perfbench — the measurement binary behind perfbench/run.py.
//
// One invocation runs one workload once and prints one JSON line of raw
// measurements (run.py turns them into the benchmark's metrics and
// gates correctness).  Every workload does a fixed, seed-determined
// amount of simulated work — a fixed tick count, lookup count or script
// batch, never a time box — and ends with exact counts plus an order-
// sensitive fingerprint of the end state, so host time is the only
// thing that differs between two runs of the same code and seed.
//
// The binary measures from outside the program: it times calls into the
// library's public entry points (Engine construction and run(),
// serve::Service, scenario::run_scenario) and, in a traced run, attaches
// probes only through public hooks:
//   * Engine::set_pre_tick_hook / set_post_tick_hook timestamps;
//   * a sim::Strategy decorator installed with decision_period = 1 that
//     forwards to the real strategy only on every 5th call — decide RNGs
//     derive from (seed, tick, label) alone, so the world evolves exactly
//     as at period 5 and the decorator's call brackets the decide phase;
//   * serve: the post-tick hook becomes drain() then on_tick_barrier(),
//     splitting reader wait from freeze/publish;
//   * fuzz: audit is switched off in the VM and the public
//     InvariantAuditor::check_* methods run from a post-tick hook
//     installed through ObsSinks::configure_engine, each timed.
// run.py pairs each traced run with an untraced run of the same seed in
// a separate process and requires equal fingerprints; the difference in
// loop wall time between the two is the tracing overhead.
//
//   perfbench --workload NAME [--seed N] [--trace 0|1] [--scale full|tiny]
//             [--setup-reps K]
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/telemetry.hpp"
#include "lb/factory.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/script.hpp"
#include "scenario/vm.hpp"
#include "serve/service.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace dhtlb;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (every thread), in ms.  On a VM with
/// paravirtual steal accounting it excludes the time the hypervisor ran
/// someone else's vCPU, which wall time cannot.
double cpu_ms_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// ---------------------------------------------------------------------
// Output: flat JSON objects built in insertion order.

class Json {
 public:
  Json& num(std::string_view key, double v) {
    open(key);
    support::json_append_double(out_, v);
    return *this;
  }
  Json& u64(std::string_view key, std::uint64_t v) {
    open(key);
    support::json_append_u64(out_, v);
    return *this;
  }
  Json& str(std::string_view key, std::string_view v) {
    open(key);
    support::json_append_escaped(out_, v);
    return *this;
  }
  Json& raw(std::string_view key, const std::string& json) {
    open(key);
    out_ += json;
    return *this;
  }
  std::string done() const { return out_ + "}"; }

 private:
  void open(std::string_view key) {
    out_ += out_.size() == 1 ? "" : ", ";
    support::json_append_escaped(out_, key);
    out_ += ": ";
  }
  std::string out_ = "{";
};

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    support::json_append_double(out, values[i]);
  }
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    support::json_append_escaped(out, values[i]);
  }
  return out + "]";
}

using Named = std::vector<std::pair<std::string, double>>;

std::string json_named(const Named& values) {
  Json j;
  for (const auto& [k, v] : values) j.num(k, v);
  return j.done();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------
// Process counters.

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double maxrss_kib = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_maxrss)};
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

// ---------------------------------------------------------------------
// Fingerprints: order-sensitive folds of everything a run produced.

struct Fold {
  std::uint64_t h;
  void add(std::uint64_t v) { h = support::mix_seed(h, v); }
  void add_id(const support::Uint160& id) {
    for (const std::uint32_t limb : id.limbs()) add(limb);
  }
};

void fold_counters(Fold& f, const sim::StrategyCounters& c) {
  for (const std::uint64_t v :
       {c.sybils_created, c.sybils_retired, c.tasks_acquired_by_sybils,
        c.failed_placements, c.workload_queries, c.invitations_sent,
        c.invitations_accepted, c.ranges_marked_invalid, c.boundary_moves,
        c.tasks_moved}) {
    f.add(v);
  }
}

// ---------------------------------------------------------------------
// What one loop of a workload produced.

struct LoopResult {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;                // process CPU time over the loop
  std::vector<double> tick_ms;  // host time per tick
  std::uint64_t ops = 0;        // ticks, lookups or scripts completed
  std::uint64_t fingerprint = 0;
  Named counts;                 // exact; committed at the default seed
  std::vector<std::string> failures;  // conservation / audit misses
  Usage before;
  Usage after;
  Named layers;  // traced loop only
};

void check(LoopResult& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

// ---------------------------------------------------------------------
// Engine workloads: invite_stream_250k, serve_zipf_100k.

struct EngineSpec {
  sim::Params params;
  std::string strategy = "none";
  std::uint64_t ticks = 0;
  bool serve = false;
  serve::Config serve_config;
  int setup_reps = 5;
};

/// Timestamps and span totals of one traced engine loop.
struct TickProbe {
  Clock::time_point pre;       // pre-tick hook entry, this tick
  Clock::time_point dec_out;   // decorator exit, this tick
  Clock::time_point post_out;  // post-tick hook exit, last tick (or
                               // loop start, before the first tick)
  double churn_arrivals_ms = 0.0;
  double decide_ms = 0.0;
  double consume_ms = 0.0;
  double tail_ms = 0.0;
  double reader_wait_ms = 0.0;
  double freeze_publish_ms = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t decide_calls = 0;
};

/// The decide-phase probe: forwards every `period`-th call to the real
/// strategy (or to none) and brackets every call with timestamps.
class ProbeStrategy final : public sim::Strategy {
 public:
  ProbeStrategy(std::unique_ptr<sim::Strategy> inner, std::uint64_t period,
                TickProbe& probe)
      : inner_(std::move(inner)), period_(period), probe_(probe) {}

  std::string_view name() const override {
    return inner_ ? inner_->name() : std::string_view("none");
  }

  void decide(sim::World& world, support::Rng& rng,
              sim::StrategyCounters& counters) override {
    const Clock::time_point in = Clock::now();
    probe_.churn_arrivals_ms += ms_between(probe_.pre, in);
    ++probe_.decide_calls;
    if (++calls_ % period_ == 0 && inner_) {
      inner_->decide(world, rng, counters);
      ++probe_.rounds;
    }
    probe_.dec_out = Clock::now();
    probe_.decide_ms += ms_between(in, probe_.dec_out);
  }

 private:
  std::unique_ptr<sim::Strategy> inner_;
  std::uint64_t period_;
  std::uint64_t calls_ = 0;
  TickProbe& probe_;
};

/// One built world: the engine plus, for serve, its attached Service.
struct EngineRig {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<serve::Service> service;

  void reset() {
    service.reset();  // drains its in-flight batch
    engine.reset();
  }
};

EngineRig build_engine(const EngineSpec& spec, std::uint64_t seed) {
  EngineRig rig;
  rig.engine = std::make_unique<sim::Engine>(spec.params, seed,
                                             lb::make_strategy(spec.strategy));
  rig.engine->set_audit(false);
  rig.engine->set_threads(1);
  if (spec.serve) {
    rig.service = std::make_unique<serve::Service>(spec.serve_config, seed);
    rig.service->attach(*rig.engine);
  }
  return rig;
}

void finish_engine(const EngineSpec& spec, EngineRig& rig,
                   const sim::RunResult& res, LoopResult& r) {
  const sim::Engine& engine = *rig.engine;
  const sim::World& world = engine.world();
  const sim::StrategyCounters& c = res.strategy_counters;

  std::uint64_t done = 0;
  for (const std::uint64_t w : res.work_per_tick) done += w;
  std::uint64_t live_sybils = 0;
  for (const sim::NodeIndex idx : world.alive_indices()) {
    live_sybils += world.sybil_count(idx);
  }
  const std::uint64_t provisioned =
      engine.task_stream() != nullptr
          ? engine.task_stream()->cumulative(res.ticks)
          : spec.params.total_tasks;

  check(r, res.ticks == spec.ticks, "ran a different number of ticks");
  check(r, done + world.remaining_tasks() == world.total_tasks(),
        "tasks done + remaining != total_tasks");
  check(r, world.total_tasks() == provisioned,
        "total_tasks differs from the provisioning schedule");
  check(r, c.sybils_retired <= c.sybils_created &&
               live_sybils <= c.sybils_created - c.sybils_retired,
        "live Sybils exceed created - retired");
  check(r, world.vnode_count() == world.alive_count() + live_sybils,
        "vnodes != alive nodes + live Sybils");
  check(r, world.alive_count() + world.waiting_count() ==
               world.physical_count(),
        "alive + waiting != physical population");
  check(r, c.invitations_accepted <= c.invitations_sent,
        "more invitations accepted than sent");

  Fold f{support::mix_seed(res.ticks, world.total_tasks())};
  f.add(res.joins);
  f.add(res.leaves);
  fold_counters(f, c);
  f.add(done);
  f.add(world.remaining_tasks());
  f.add(world.vnode_count());
  f.add(world.alive_count());
  f.add(world.waiting_count());
  for (const std::uint64_t w : world.alive_workloads()) f.add(w);
  for (const support::Uint160& id : world.ring_ids()) f.add_id(id);

  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.counts = {{"sim.ticks", d(res.ticks)},
              {"sim.joins", d(res.joins)},
              {"sim.leaves", d(res.leaves)},
              {"sim.vnodes_end", d(world.vnode_count())},
              {"sim.tasks_done", d(done)},
              {"sim.tasks_arrived", d(world.total_tasks())},
              {"lb.sybils_created", d(c.sybils_created)},
              {"lb.sybils_retired", d(c.sybils_retired)},
              {"lb.invitations_sent", d(c.invitations_sent)},
              {"lb.invitations_accepted", d(c.invitations_accepted)},
              {"lb.tasks_acquired", d(c.tasks_acquired_by_sybils)}};
  if (rig.service) {
    const serve::Report rep = rig.service->report();
    const std::uint64_t batches = spec.ticks + 1;  // view 0 + one per tick
    r.ops = rep.lookups;
    check(r, rep.lookups == batches * spec.serve_config.lookups_per_tick,
          "serve lookups != lookups attempted");
    check(r, rep.batches == batches, "serve batches != ticks + 1");
    for (const std::uint64_t v :
         {rep.lookups, rep.batches, rep.hops_total, rep.hops_max,
          rep.owners_hit, rep.views.published, rep.views.reclaimed}) {
      f.add(v);
    }
    r.counts.push_back({"serve.lookups", d(rep.lookups)});
    r.counts.push_back({"serve.hops_total", d(rep.hops_total)});
    r.counts.push_back({"serve.views_published", d(rep.views.published)});
    r.counts.push_back({"serve.views_reclaimed", d(rep.views.reclaimed)});
  } else {
    r.ops = res.ticks;
  }
  r.fingerprint = f.h;
}

LoopResult run_engine_untraced(const EngineSpec& spec, EngineRig& rig) {
  LoopResult r;
  sim::Engine& engine = *rig.engine;
  std::vector<Clock::time_point> marks;
  marks.reserve(spec.ticks + 1);
  // Keep ticking past a drained job: the workload is a fixed tick count.
  engine.set_pre_tick_hook([&marks](std::uint64_t) {
    marks.push_back(Clock::now());
    return true;
  });
  engine.record_tick_series(true);

  r.before = usage_now();
  const double c0 = cpu_ms_now();
  const Clock::time_point t0 = Clock::now();
  const sim::RunResult res = engine.run();
  const Clock::time_point t_run = Clock::now();
  if (rig.service) rig.service->drain();
  const Clock::time_point t1 = Clock::now();
  r.cpu_ms = cpu_ms_now() - c0;
  r.after = usage_now();

  r.wall_ms = ms_between(t0, t1);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    r.tick_ms.push_back(
        ms_between(marks[i], i + 1 < marks.size() ? marks[i + 1] : t_run));
  }
  finish_engine(spec, rig, res, r);
  return r;
}

/// The world a traced run builds: identical to `spec` except that decide
/// is called on every tick, by the ProbeStrategy run_engine_traced
/// installs, which forwards every decision_period-th call.
EngineSpec probed(const EngineSpec& spec) {
  EngineSpec traced = spec;
  traced.params.decision_period = 1;
  traced.strategy = "none";
  return traced;
}

/// `rig` must have been built from probed(spec).
LoopResult run_engine_traced(const EngineSpec& spec, EngineRig& rig) {
  sim::Engine& engine = *rig.engine;
  TickProbe p;
  engine.set_strategy(std::make_unique<ProbeStrategy>(
      lb::make_strategy(spec.strategy), spec.params.decision_period, p));
  // The few instructions between step() entry and the pre-tick hook
  // count toward the previous tick's tail.
  engine.set_pre_tick_hook([&p](std::uint64_t) {
    p.pre = Clock::now();
    p.tail_ms += ms_between(p.post_out, p.pre);
    return true;
  });
  serve::Service* service = rig.service.get();
  engine.set_post_tick_hook([&p, &engine, service](std::uint64_t tick) {
    const Clock::time_point in = Clock::now();
    p.consume_ms += ms_between(p.dec_out, in);
    Clock::time_point out = in;
    if (service != nullptr) {
      service->drain();
      const Clock::time_point mid = Clock::now();
      p.reader_wait_ms += ms_between(in, mid);
      service->on_tick_barrier(engine.world(), tick);
      out = Clock::now();
      p.freeze_publish_ms += ms_between(mid, out);
    }
    p.post_out = out;
  });
  engine.record_tick_series(true);

  LoopResult r;
  r.before = usage_now();
  const double c0 = cpu_ms_now();
  const Clock::time_point t0 = Clock::now();
  p.post_out = t0;
  const sim::RunResult res = engine.run();
  const Clock::time_point t_run = Clock::now();
  p.tail_ms += ms_between(p.post_out, t_run);
  if (service != nullptr) service->drain();
  const Clock::time_point t1 = Clock::now();
  p.reader_wait_ms += ms_between(t_run, t1);
  r.cpu_ms = cpu_ms_now() - c0;
  r.after = usage_now();
  r.wall_ms = ms_between(t0, t1);
  check(r, p.decide_calls == spec.ticks,
        "probe strategy was not called once per tick");
  finish_engine(spec, rig, res, r);
  r.layers = {{"sim.churn_arrivals_ms", p.churn_arrivals_ms},
              {"sim.consume_ms", p.consume_ms},
              {"sim.tail_ms", p.tail_ms},
              {"lb.decide_ms", p.decide_ms},
              {"lb.rounds", static_cast<double>(p.rounds)},
              {"serve.reader_wait_ms", p.reader_wait_ms},
              {"serve.freeze_publish_ms", p.freeze_publish_ms}};
  if (service != nullptr) {
    const serve::Report rep = service->report();
    r.layers.push_back({"serve.hops_mean", rep.hops_mean});
  }
  return r;
}

// ---------------------------------------------------------------------
// fuzz_mixed_audited: a batch of generated `mixed` scripts run through
// the scenario VM with the invariant auditor on.

struct FuzzSpec {
  std::uint64_t scripts = 0;
  int setup_reps = 3;
};

struct FuzzBatch {
  std::vector<scenario::Script> scripts;
  double generate_ms = 0.0;
  double roundtrip_ms = 0.0;
  std::vector<std::string> failures;
};

/// The batch is stratified on a fixed grid over the two header values
/// a script's cost follows most closely (horizon x initial nodes
/// explains ~60% of per-script run-time variance): candidates are drawn
/// from the seed's stream, mix_seed(seed, i) for i = 0, 1, ..., and a
/// candidate is kept only while its grid cell is below quota.  Seeds
/// then differ in which scripts run, not in how much work the batch
/// holds, which is what keeps scripts/s comparable across seeds.
constexpr std::uint64_t kHorizonBands = 5;  // mixed: horizon 40..200
constexpr std::uint64_t kNodeBands = 6;     // mixed: 16..256 nodes

std::uint64_t band(std::uint64_t v, std::uint64_t lo, std::uint64_t hi,
                   std::uint64_t bands) {
  const std::uint64_t clamped = std::clamp(v, lo, hi);
  return std::min(bands - 1, (clamped - lo) * bands / (hi - lo + 1));
}

/// Generates the batch and round-trips every kept script emit -> parse
/// -> emit, requiring byte-identical text (the campaign's validation
/// gate).
FuzzBatch build_fuzz(const FuzzSpec& spec, std::uint64_t seed) {
  constexpr std::uint64_t kCells = kHorizonBands * kNodeBands;
  const std::uint64_t quota = (spec.scripts + kCells - 1) / kCells;
  std::uint64_t filled[kCells] = {};
  FuzzBatch b;
  b.scripts.reserve(spec.scripts);
  for (std::uint64_t i = 0; b.scripts.size() < spec.scripts; ++i) {
    if (i > 1000 * spec.scripts) {
      throw std::runtime_error("fuzz batch: strata never filled");
    }
    const Clock::time_point t0 = Clock::now();
    const scenario::Script script =
        scenario::generate_script("mixed", support::mix_seed(seed, i));
    const Clock::time_point t1 = Clock::now();
    b.generate_ms += ms_between(t0, t1);
    const std::uint64_t cell =
        band(script.horizon, 40, 200, kHorizonBands) * kNodeBands +
        band(script.params.initial_nodes, 16, 256, kNodeBands);
    if (filled[cell] == quota) continue;
    ++filled[cell];
    const std::string text = scenario::emit_script(script);
    scenario::Script parsed = scenario::Script::parse(text, "<perfbench>");
    if (scenario::emit_script(parsed) != text) {
      b.failures.push_back("script " + std::to_string(i) +
                           " does not round-trip emit->parse->emit");
    }
    b.roundtrip_ms += ms_between(t1, Clock::now());
    b.scripts.push_back(std::move(parsed));
  }
  return b;
}

double record_value(const scenario::ScenarioResult& result,
                    std::string_view metric) {
  for (const bench::Record& rec : result.records) {
    if (rec.metric == metric) return rec.value;
  }
  return -1.0;
}

struct AuditProbe {
  using Check = void (sim::InvariantAuditor::*)(sim::AuditReport&) const;
  static constexpr std::pair<const char*, Check> kChecks[] = {
      {"index_integrity", &sim::InvariantAuditor::check_index_integrity},
      {"ring_order", &sim::InvariantAuditor::check_ring_order},
      {"key_partition", &sim::InvariantAuditor::check_key_partition},
      {"successor_lists", &sim::InvariantAuditor::check_successor_lists},
      {"sybil_ownership", &sim::InvariantAuditor::check_sybil_ownership},
      {"workload_cache", &sim::InvariantAuditor::check_workload_cache},
      {"membership", &sim::InvariantAuditor::check_membership},
      {"conservation", &sim::InvariantAuditor::check_conservation},
  };
  double check_ms[std::size(kChecks)] = {};
  double audit_ms = 0.0;
  double unsplit_ms = 0.0;  // tick work between hooks (VM owns pre-tick)
  double build_ms = 0.0;    // run_scenario entry -> engine configured
  Clock::time_point script_start;
  Clock::time_point last;
  std::uint64_t audits = 0;
  std::vector<std::string> failures;
};

LoopResult run_fuzz(const FuzzSpec& spec, const FuzzBatch& batch,
                    std::uint64_t seed, bool traced) {
  LoopResult r;
  AuditProbe probe;
  Clock::time_point last_mark;
  scenario::ObsSinks sinks;
  if (traced) {
    sinks.configure_engine = [&probe](sim::Engine& engine) {
      engine.set_threads(1);
      const sim::World& world = engine.world();
      engine.set_post_tick_hook([&probe, &world](std::uint64_t) {
        const Clock::time_point in = Clock::now();
        probe.unsplit_ms += ms_between(probe.last, in);
        const sim::InvariantAuditor auditor(world);
        sim::AuditReport report;
        Clock::time_point t = in;
        for (std::size_t i = 0; i < std::size(AuditProbe::kChecks); ++i) {
          (auditor.*AuditProbe::kChecks[i].second)(report);
          const Clock::time_point next = Clock::now();
          probe.check_ms[i] += ms_between(t, next);
          t = next;
        }
        if (!report.ok() && probe.failures.size() < 4) {
          probe.failures.push_back("audit: " + report.to_string());
        }
        ++probe.audits;
        probe.audit_ms += ms_between(in, t);
        probe.last = t;
      });
      probe.last = Clock::now();
      probe.build_ms += ms_between(probe.script_start, probe.last);
    };
  } else {
    // Untraced: the VM's own per-tick audit; one timestamp per tick
    // gives the tick-time distribution.
    sinks.configure_engine = [&r, &last_mark](sim::Engine& engine) {
      engine.set_threads(1);
      engine.set_post_tick_hook([&r, &last_mark](std::uint64_t) {
        const Clock::time_point now = Clock::now();
        r.tick_ms.push_back(ms_between(last_mark, now));
        last_mark = now;
      });
      last_mark = Clock::now();
    };
  }

  Fold f{support::mix_seed(seed, spec.scripts)};
  double ticks = 0, joins = 0, leaves = 0, vnodes = 0, done = 0, total = 0,
         created = 0, retired = 0;
  r.before = usage_now();
  const double c0 = cpu_ms_now();
  const Clock::time_point t0 = Clock::now();
  for (const scenario::Script& script : batch.scripts) {
    probe.script_start = Clock::now();
    const scenario::ScenarioResult result =
        scenario::run_scenario(script, script.seed, /*audit=*/!traced, sinks);
    for (const bench::Record& rec : result.records) {
      for (const char c : rec.metric) f.add(static_cast<std::uint64_t>(c));
      std::uint64_t bits = 0;
      std::memcpy(&bits, &rec.value, sizeof bits);
      f.add(bits);
    }
    const double script_total = record_value(result, "total_tasks");
    const double script_left = record_value(result, "remaining_tasks");
    check(r, script_total >= 0 && script_left >= 0 &&
                 script_left <= script_total,
          script.name + ": remaining tasks exceed total tasks");
    check(r, record_value(result, "sybils_retired") <=
                 record_value(result, "sybils_created"),
          script.name + ": more Sybils retired than created");
    ticks += record_value(result, "ticks");
    joins += record_value(result, "churn_joins");
    leaves += record_value(result, "churn_leaves");
    vnodes += record_value(result, "final_vnodes");
    done += script_total - script_left;
    total += script_total;
    created += record_value(result, "sybils_created");
    retired += record_value(result, "sybils_retired");
  }
  const Clock::time_point t1 = Clock::now();
  r.cpu_ms = cpu_ms_now() - c0;
  r.after = usage_now();
  r.wall_ms = ms_between(t0, t1);
  r.ops = batch.scripts.size();
  r.fingerprint = f.h;
  r.failures.insert(r.failures.end(), batch.failures.begin(),
                    batch.failures.end());
  r.failures.insert(r.failures.end(), probe.failures.begin(),
                    probe.failures.end());
  r.counts = {{"scenario.scripts", static_cast<double>(batch.scripts.size())},
              {"scenario.ticks", ticks},
              {"sim.joins", joins},
              {"sim.leaves", leaves},
              {"sim.vnodes_end", vnodes},
              {"sim.tasks_done", done},
              {"sim.tasks_arrived", total},
              {"lb.sybils_created", created},
              {"lb.sybils_retired", retired}};
  if (traced) {
    check(r, static_cast<double>(probe.audits) == ticks,
          "audit probe did not run once per tick");
    r.layers = {{"sim.build_ms", probe.build_ms},
                {"sim.tick_unsplit_ms", probe.unsplit_ms},
                {"audit.ms", probe.audit_ms},
                {"scenario.run_ms", r.wall_ms}};
    for (std::size_t i = 0; i < std::size(AuditProbe::kChecks); ++i) {
      r.layers.push_back({std::string("audit.") +
                              AuditProbe::kChecks[i].first + "_ms",
                          probe.check_ms[i]});
    }
  }
  return r;
}

// ---------------------------------------------------------------------
// Workload table.

bool engine_spec(const std::string& name, bool tiny, EngineSpec& spec) {
  if (name == "invite_stream_250k") {
    // The tableD streamed cell with the paper's Invitation strategy.
    const std::uint64_t horizon = tiny ? 10 : 20;
    spec.params.initial_nodes = tiny ? 10'000 : 250'000;
    spec.params.total_tasks = 2 * spec.params.initial_nodes * horizon;
    spec.params.churn_rate = 0.02;
    spec.params.provisioning = sim::TaskProvisioning::kStreamed;
    spec.strategy = "invitation";
    spec.ticks = horizon;
    spec.setup_reps = tiny ? 2 : 5;
  } else if (name == "serve_zipf_100k") {
    spec.params.initial_nodes = tiny ? 10'000 : 100'000;
    spec.params.total_tasks = 2 * spec.params.initial_nodes;
    spec.params.churn_rate = 0.02;
    spec.serve = true;
    spec.serve_config.readers = 2;
    spec.serve_config.traffic = serve::Traffic::kZipf;
    spec.serve_config.lookups_per_tick = tiny ? 10'000 : 100'000;
    spec.ticks = tiny ? 10 : 60;
    spec.setup_reps = tiny ? 2 : 5;
  } else {
    return false;
  }
  spec.params.max_ticks = spec.ticks;
  return true;
}

struct Cli {
  std::string workload;
  std::uint64_t seed = 42;
  bool trace = false;
  bool tiny = false;
  int setup_reps = 0;  // 0 = the workload's default
};

bool parse_cli(int argc, char** argv, Cli& cli) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cli.workload = val;
    } else if (key == "--seed") {
      cli.seed = std::stoull(val);
    } else if (key == "--trace") {
      cli.trace = val == "1";
    } else if (key == "--scale") {
      if (val != "full" && val != "tiny") return false;
      cli.tiny = val == "tiny";
    } else if (key == "--setup-reps") {
      cli.setup_reps = std::stoi(val);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !cli.workload.empty();
}

void emit_loop(Json& j, const LoopResult& r) {
  j.num("wall_ms", r.wall_ms)
      .num("cpu_ms", r.cpu_ms)
      .u64("ops", r.ops)
      .str("fingerprint", hex64(r.fingerprint))
      .raw("tick_ms", json_array(r.tick_ms))
      .raw("counts", json_named(r.counts))
      .raw("failures", json_strings(r.failures))
      .raw("usage",
           json_named({{"user_s", r.after.user_s - r.before.user_s},
                       {"sys_s", r.after.sys_s - r.before.sys_s},
                       {"minor_faults", r.after.minflt - r.before.minflt}}));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--trace 0|1] "
                 "[--scale full|tiny] [--setup-reps K]\n");
    return 2;
  }
  EngineSpec espec;
  FuzzSpec fspec;
  const bool is_engine = engine_spec(cli.workload, cli.tiny, espec);
  if (!is_engine && cli.workload == "fuzz_mixed_audited") {
    fspec.scripts = cli.tiny ? 30 : 210;
    fspec.setup_reps = cli.tiny ? 1 : 21;
  } else if (!is_engine) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cli.workload.c_str());
    return 2;
  }
  int reps = is_engine ? espec.setup_reps : fspec.setup_reps;
  if (cli.setup_reps > 0) reps = cli.setup_reps;

  // Announce the planned op count first, so a run that dies mid-loop
  // can still be charged with every op it attempted.
  const std::uint64_t attempted =
      !is_engine ? fspec.scripts
      : espec.serve
          ? (espec.ticks + 1) * espec.serve_config.lookups_per_tick
          : espec.ticks;
  std::printf("%s\n", Json().u64("planned_ops", attempted).done().c_str());
  std::fflush(stdout);

  try {
    Json out;
    out.str("workload", cli.workload)
        .u64("seed", cli.seed)
        .u64("trace", cli.trace ? 1 : 0)
        .str("scale", cli.tiny ? "tiny" : "full")
        .u64("attempted", attempted);
    std::vector<double> cal{bench::calibrate_ms()};
    std::vector<double> setup_ms;
    std::vector<double> setup_cpu_ms;
    auto timed_setup = [&setup_ms, &setup_cpu_ms](auto&& build) {
      const double c0 = cpu_ms_now();
      const Clock::time_point t0 = Clock::now();
      auto built = build();
      setup_ms.push_back(ms_between(t0, Clock::now()));
      setup_cpu_ms.push_back(cpu_ms_now() - c0);
      return built;
    };
    // The timed loop runs on the first world this process builds, so the
    // heap starts every loop in the same state (a rebuilt world lands in
    // whatever the previous one's frees left behind, which swings page
    // faults by 20x); the remaining setup repetitions follow the loop.
    LoopResult loop;
    double generate_ms = 0.0;
    double roundtrip_ms = 0.0;
    if (is_engine) {
      const EngineSpec built = cli.trace ? probed(espec) : espec;
      auto build = [&] { return build_engine(built, cli.seed); };
      EngineRig rig = timed_setup(build);
      loop = cli.trace ? run_engine_traced(espec, rig)
                       : run_engine_untraced(espec, rig);
      rig.reset();
      for (int i = 1; i < reps; ++i) timed_setup(build).reset();
    } else {
      auto build = [&] { return build_fuzz(fspec, cli.seed); };
      const FuzzBatch batch = timed_setup(build);
      generate_ms = batch.generate_ms;
      roundtrip_ms = batch.roundtrip_ms;
      loop = run_fuzz(fspec, batch, cli.seed, cli.trace);
      for (int i = 1; i < reps; ++i) timed_setup(build);
    }
    cal.push_back(bench::calibrate_ms());
    // Peak RSS as of the loop's end, before the fingerprint's copies of
    // the ring and workloads (and the later setup builds) add to it.
    const double peak_rss_kib = loop.after.maxrss_kib;

    out.raw("setup_ms", json_array(setup_ms))
        .raw("setup_cpu_ms", json_array(setup_cpu_ms))
        .num("peak_rss_kib", peak_rss_kib)
        .raw("host_cal_ms", json_array(cal))
        .raw("config",
             Json()
                 .u64("engine_threads", 1)
                 .u64("readers", is_engine && espec.serve
                                     ? espec.serve_config.readers
                                     : 0)
                 .u64("usable_cpus", usable_cpus())
                 .u64("ticks", is_engine ? espec.ticks : 0)
                 .u64("scripts", fspec.scripts)
                 .u64("setup_reps", static_cast<std::uint64_t>(reps))
                 .done())
        .raw("build", Json()
                          .str("compiler", PERFBENCH_COMPILER)
                          .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef DHTLB_AUDIT_ENABLED
                          .u64("audit_build", 1)
#else
                          .u64("audit_build", 0)
#endif
                          .u64("workload_audit", is_engine ? 0 : 1)
                          .done());
    emit_loop(out, loop);
    if (cli.trace) {
      Named layers = loop.layers;
      layers.push_back({"scenario.generate_ms", generate_ms});
      layers.push_back({"scenario.roundtrip_ms", roundtrip_ms});
      out.raw("layers", json_named(layers));
    }
    std::printf("%s\n", out.done().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

// fuzz_throughput — how fast the scenario-fuzz campaign machinery
// turns (profile, seed) pairs into generated, parsed and fully executed
// runs: the per-night script budget of the nightly scenario-fuzz lane
// is this number times the wall budget.
//
// Each cell generates `scripts` scenarios from one profile, pushes each
// through the canonical emit → parse round trip (the same validation
// gate the campaign applies), and runs it in-process through the
// scenario VM.  Generation counts (scripts, blocks, events, ticks) and
// an order-sensitive fold over every telemetry row are recorded as
// value records, so compare_bench.py pins the generator's output and
// the VM's run results bit-for-bit at the baseline seed.  Wall time is
// printed only; perfbench's fuzz_mixed_audited workload measures this
// loop's speed.
#include <cstring>
#include <string_view>

#include "repro_util.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/script.hpp"
#include "scenario/vm.hpp"

namespace dhtlb::bench {
namespace {

// Order-sensitive fold over a run's telemetry rows: metric names and
// raw double bits both feed the accumulator, so any drift in row order,
// row set, or value shows up as a fold mismatch against the baseline.
std::uint64_t fold_result(std::uint64_t fold,
                          const scenario::ScenarioResult& result) {
  for (const Record& record : result.records) {
    for (const char c : record.metric) {
      fold = support::mix_seed(fold, static_cast<std::uint64_t>(c));
    }
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(record.value));
    std::memcpy(&bits, &record.value, sizeof(bits));
    fold = support::mix_seed(fold, bits);
  }
  return fold;
}

}  // namespace

void fuzz_throughput(Session& session) {
  const std::uint64_t seed = session.seed();
  // 5 scripts per trial: DHTLB_TRIALS=2 (the smoke/baseline setting)
  // runs a 10-script campaign slice per profile.
  const std::uint64_t scripts =
      5 * static_cast<std::uint64_t>(session.trials());
  // DHTLB_THREADS sizes each run's engine, as the campaign runner does.
  scenario::ObsSinks sinks;
  sinks.configure_engine = [&session](sim::Engine& engine) {
    engine.set_threads(session.threads());
  };
  std::printf("%llu scripts per profile\n\n",
              static_cast<unsigned long long>(scripts));

  support::TextTable table({"profile", "scripts", "wall ms", "scripts/s",
                            "blocks", "events", "ticks", "fold"});

  // One sim-substrate profile from each end of the cost spectrum:
  // storm scripts are membership-heavy and cheap, mixed draws the whole
  // vocabulary (including streamed provisioning) and is the nightly
  // campaign's default workload.
  for (const std::string_view profile : {"storm", "mixed"}) {
    std::uint64_t blocks_total = 0;
    std::uint64_t events_total = 0;
    std::uint64_t ticks_total = 0;
    std::uint64_t fold = support::mix_seed(seed, scripts);
    const WallTimer timer;
    for (std::uint64_t i = 0; i < scripts; ++i) {
      const scenario::Script script =
          scenario::generate_script(profile, support::mix_seed(seed, i));
      // The campaign's validation gate: canonical text must parse back.
      const scenario::Script parsed =
          scenario::Script::parse(scenario::emit_script(script), "<fuzz>");
      for (const scenario::Block& block : parsed.blocks) {
        blocks_total += 1;
        events_total += block.events.size();
      }
      ticks_total += parsed.horizon;
      const scenario::ScenarioResult result =
          scenario::run_scenario(parsed, parsed.seed, /*audit=*/false, sinks);
      if (result.records.empty()) {
        throw std::runtime_error("empty telemetry from " + parsed.name);
      }
      fold = fold_result(fold, result);
    }
    const double wall = timer.elapsed_ms();

    const std::uint64_t rss = Telemetry::current_peak_rss_bytes();
    const double per_s =
        wall > 0.0 ? 1000.0 * static_cast<double>(scripts) / wall : 0.0;
    const std::string name = std::string("profile=") + std::string(profile) +
                             "/scripts=" + std::to_string(scripts);
    session.record(name, "scripts", static_cast<double>(scripts), scripts,
                   rss);
    session.record(name, "blocks_total", static_cast<double>(blocks_total),
                   scripts);
    session.record(name, "events_total", static_cast<double>(events_total),
                   scripts);
    session.record(name, "ticks_total", static_cast<double>(ticks_total),
                   scripts);
    // Low 53 bits fit a double exactly, so the JSON round trip is
    // lossless and compare_bench.py can demand bit-equality.
    session.record(name, "telemetry_fold",
                   static_cast<double>(fold & 0x1FFFFFFFFFFFFFull), scripts);
    table.add_row({std::string(profile), std::to_string(scripts),
                   support::format_fixed(wall, 1),
                   support::format_fixed(per_s, 1),
                   std::to_string(blocks_total), std::to_string(events_total),
                   std::to_string(ticks_total),
                   std::to_string(fold & 0xFFFFFFFFFFFFFull)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace dhtlb::bench

// dhtlb_bench — the one driver of the paper reproductions (Tables I-II,
// Figures 1-14, the §VI text numbers) and of our scale benches.
//
//   dhtlb_bench <name>   run one bench: its tables on stdout, its records
//                        in <DHTLB_BENCH_DIR>/BENCH_<name>.json
//   dhtlb_bench --list   print every bench name, one per line
//
// Each bench body (bench/<name>.cpp) runs inside a Session
// (repro_util.hpp), which reads DHTLB_TRIALS, DHTLB_SEED and
// DHTLB_THREADS, prints the banner and owns the telemetry.  Run one
// bench per process: the peak RSS its records carry is per process.
//
// Exit status: 0 on success; 2 on a usage error or a malformed env knob
// (any std::invalid_argument, e.g. DHTLB_SEED=abc); 1 on any other
// failure, e.g. an unwritable DHTLB_BENCH_DIR.  Failures print
// "dhtlb_bench: <name>: <what>" to stderr, and a failed run writes no
// BENCH_*.json.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string_view>

#include "repro_util.hpp"

namespace dhtlb::bench {

// The bench bodies, one per file of the same name.
void table1_distribution(Session&);
void table2_churn(Session&);
void tableR_random_injection(Session&);
void tableN_neighbor(Session&);
void tableI_invitation(Session&);
void tableA_ablations(Session&);
void tableF_future_work(Session&);
void tableM_message_costs(Session&);
void tableB_backup_costs(Session&);
void tableC_flash_crowd(Session&);
void tableS_scale(Session&);
void tableD_dense_scale(Session&);
void tick_parallel(Session&);
void task_stream(Session&);
void serve_throughput(Session&);
void fuzz_throughput(Session&);
void fig1_workload_pdf(Session&);
void fig2_3_ring_layout(Session&);
void fig4_6_churn_histograms(Session&);
void fig7_9_random_injection(Session&);
void fig10_heterogeneous(Session&);
void fig11_12_neighbor(Session&);
void fig13_14_invitation(Session&);
void figW_work_per_tick(Session&);

namespace {

struct Bench {
  const char* name;  // the CLI name and BENCH_<name>.json
  const char* experiment_id;
  const char* description;
  std::size_t default_trials;  // DHTLB_TRIALS default; 0 = no trials
  void (*body)(Session&);
};

const Bench kBenches[] = {
    {"table1_distribution", "Table I", "initial workload distribution", 25,
     table1_distribution},
    {"table2_churn", "Table II", "Induced Churn runtime factors", 8,
     table2_churn},
    {"tableR_random_injection", "Table R (SS VI-B text)",
     "random injection runtime factors", 10, tableR_random_injection},
    {"tableN_neighbor", "Table N (SS VI-C text)",
     "neighbor injection variants", 10, tableN_neighbor},
    {"tableI_invitation", "Table I' (SS VI-D text)", "invitation strategy",
     10, tableI_invitation},
    {"tableA_ablations", "Ablations (SS VI-B.1, VI-C)", "variable effects", 8,
     tableA_ablations},
    {"tableF_future_work", "Future work (SS VII)", "extension strategies", 8,
     tableF_future_work},
    {"tableM_message_costs", "Message costs (protocol-level ChordReduce)",
     "runtime vs traffic per policy", 3, tableM_message_costs},
    {"tableB_backup_costs", "Backup costs (SS VI-A footnote)",
     "churn gains vs replica-repair traffic", 6, tableB_backup_costs},
    {"tableC_flash_crowd", "Flash crowd (SS VII / SS I)",
     "late joiners absorbing an in-flight job", 5, tableC_flash_crowd},
    {"tableS_scale", "Table S", "flat-ring scale sweep", 0, tableS_scale},
    {"tableD_dense_scale", "Table D", "all strategies under churn", 3,
     tableD_dense_scale},
    {"tick_parallel", "Tick parallel", "sharded tick engine thread scaling",
     0, tick_parallel},
    {"task_stream", "Task stream", "streamed provisioning draw throughput", 0,
     task_stream},
    {"serve_throughput", "Serve throughput", "serving-plane reader scaling",
     0, serve_throughput},
    {"fuzz_throughput", "Fuzz throughput", "scenario-fuzz campaign rate", 2,
     fuzz_throughput},
    {"fig1_workload_pdf", "Figure 1",
     "workload PDF, 1000 nodes / 1,000,000 tasks", 1, fig1_workload_pdf},
    {"fig2_3_ring_layout", "Figures 2-3",
     "10 nodes / 100 tasks on the unit circle", 1, fig2_3_ring_layout},
    {"fig4_6_churn_histograms", "Figures 4-6",
     "churn 0.01 vs none at ticks 0/5/35", 1, fig4_6_churn_histograms},
    {"fig7_9_random_injection", "Figures 7-9",
     "random injection vs none / churn", 1, fig7_9_random_injection},
    {"fig10_heterogeneous", "Figure 10", "heterogeneous networks at tick 35",
     6, fig10_heterogeneous},
    {"fig11_12_neighbor", "Figures 11-12",
     "neighbor injection variants at tick 35", 1, fig11_12_neighbor},
    {"fig13_14_invitation", "Figures 13-14", "invitation at tick 35", 1,
     fig13_14_invitation},
    {"figW_work_per_tick", "Work per tick (SS V-C output)",
     "throughput curves per strategy", 1, figW_work_per_tick},
};

const Bench* find_bench(std::string_view name) {
  for (const Bench& bench : kBenches) {
    if (name == bench.name) return &bench;
  }
  return nullptr;
}

}  // namespace
}  // namespace dhtlb::bench

int main(int argc, char** argv) {
  using dhtlb::bench::kBenches;
  const std::string_view arg = argc == 2 ? argv[1] : "";
  if (arg == "--list") {
    for (const auto& bench : kBenches) std::printf("%s\n", bench.name);
    return 0;
  }
  const auto* bench = dhtlb::bench::find_bench(arg);
  if (bench == nullptr) {
    if (argc == 2) {
      std::fprintf(stderr, "dhtlb_bench: unknown bench '%s'\n", argv[1]);
    }
    std::fprintf(stderr, "usage: dhtlb_bench <name> | dhtlb_bench --list\n");
    return 2;
  }
  try {
    dhtlb::bench::Session session(bench->name, bench->experiment_id,
                                  bench->description, bench->default_trials);
    bench->body(session);
    session.flush();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "dhtlb_bench: %s: %s\n", bench->name, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dhtlb_bench: %s: %s\n", bench->name, e.what());
    return 1;
  }
  return 0;
}

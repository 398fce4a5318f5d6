// Reproduces Figures 2 and 3: 10 nodes and 100 tasks on the Chord unit
// circle, first with SHA-1 node placement (clustered, uneven arcs) and
// then with evenly spaced nodes (tasks still cluster).  Prints an ASCII
// ring plus per-node ownership counts, and emits the exact (x, y) CSV
// the paper's plots use.
#include <map>

#include "hashing/sha1.hpp"
#include "repro_util.hpp"
#include "support/uint160.hpp"
#include "viz/ring_layout.hpp"

namespace dhtlb::bench {
namespace {

using support::Uint160;

void show(Session& session, const char* cell, const char* title,
          const std::vector<Uint160>& nodes,
          const std::vector<Uint160>& tasks) {
  std::printf("--- %s ---\n", title);
  std::vector<viz::RingPoint> points;
  for (const auto& t : tasks) points.push_back(viz::ring_point(t, 't'));
  for (const auto& n : nodes) points.push_back(viz::ring_point(n, 'n'));
  std::printf("%s", viz::render_ring(points, 33).c_str());

  // Ownership: each node owns (pred, self]; count tasks per node.
  std::map<Uint160, int> owned;
  std::vector<Uint160> sorted_nodes = nodes;
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  for (const auto& t : tasks) {
    auto it = std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(), t);
    if (it == sorted_nodes.end()) it = sorted_nodes.begin();
    ++owned[*it];
  }
  support::TextTable table({"node (id prefix)", "tasks owned"});
  int max_owned = 0;
  int min_owned = static_cast<int>(tasks.size());
  for (const auto& n : sorted_nodes) {
    table.add_row({n.to_short_hex(), std::to_string(owned[n])});
    max_owned = std::max(max_owned, owned[n]);
    min_owned = std::min(min_owned, owned[n]);
  }
  session.record(cell, "max_tasks_owned", max_owned, 1);
  session.record(cell, "min_tasks_owned", min_owned, 1);
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

void fig2_3_ring_layout(Session& session) {
  support::Rng rng(session.seed());
  std::vector<Uint160> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(hashing::Sha1::hash_u64(rng()));
  }

  // Figure 2: SHA-1 node IDs — nodes cluster, arcs are wildly uneven.
  std::vector<Uint160> sha_nodes;
  for (int i = 0; i < 10; ++i) {
    sha_nodes.push_back(hashing::Sha1::hash_u64(rng()));
  }
  show(session, "fig2/sha1-nodes",
       "Figure 2: SHA-1-placed nodes (O) and tasks (+)", sha_nodes, tasks);

  // Figure 3: evenly spaced node IDs — arcs equal, but tasks still skew.
  std::vector<Uint160> even_nodes;
  const Uint160 step = Uint160::max().div_small(10);
  Uint160 cursor;
  for (int i = 0; i < 10; ++i) {
    even_nodes.push_back(cursor);
    cursor += step;
  }
  show(session, "fig3/even-nodes",
       "Figure 3: evenly spaced nodes (O) and tasks (+)", even_nodes, tasks);

  // CSV for external plotting (both figures share the task set).
  std::vector<viz::RingPoint> csv_points;
  for (const auto& n : sha_nodes) csv_points.push_back(viz::ring_point(n, 'n'));
  for (const auto& t : tasks) csv_points.push_back(viz::ring_point(t, 't'));
  std::printf("--- Figure 2 CSV (first 5 rows) ---\n");
  const std::string csv = viz::ring_csv(csv_points);
  std::size_t pos = 0;
  for (int line = 0; line < 6 && pos != std::string::npos; ++line) {
    const auto next = csv.find('\n', pos);
    std::printf("%s\n", csv.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  std::printf("...\n");
}

}  // namespace dhtlb::bench

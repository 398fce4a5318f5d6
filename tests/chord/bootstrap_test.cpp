// Pins Network::bootstrap to the ring build every caller used to copy by
// hand: create the first id, join each further id through it with two
// stabilize rounds after each, settle, then build every finger table.
// The digests below were recorded from that hand-rolled loop; the
// builder must reproduce its messages and its whole ring state.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "chord/compute.hpp"
#include "chord/network.hpp"
#include "hashing/sha1.hpp"
#include "support/rng.hpp"

namespace dhtlb::chord {
namespace {

struct RingDigest {
  std::uint64_t messages = 0;  // every MessageStats counter
  std::uint64_t ids = 0;       // node_ids(), in ring order
  std::uint64_t state = 0;     // successor lists, predecessors, fingers
  bool operator==(const RingDigest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const RingDigest& d) {
  return os << std::hex << "{0x" << d.messages << ", 0x" << d.ids << ", 0x"
            << d.state << "}" << std::dec;
}

/// FNV-1a over 64-bit words.
struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const NodeId& id) {
    add(id.high64());
    add(id.low64());
    add(id.limbs()[2]);
  }
  void add(const std::optional<NodeId>& id) {
    add(std::uint64_t{id.has_value()});
    if (id) add(*id);
  }
};

RingDigest digest(const Network& net) {
  const MessageStats& s = net.stats();
  Fold messages;
  for (const std::uint64_t v : {s.find_successor, s.get_predecessor,
                                s.get_successor_list, s.notify, s.ping}) {
    messages.add(v);
  }
  Fold ids;
  Fold state;
  for (const NodeId& id : net.node_ids()) {
    ids.add(id);
    const ChordNode& n = net.node(id);
    state.add(n.successor_list().size());
    for (const NodeId& succ : n.successor_list()) state.add(succ);
    state.add(n.predecessor());
    for (const auto& finger : n.fingers()) state.add(finger);
  }
  return {messages.h, ids.h, state.h};
}

/// The ring build as each caller wrote it before Network::bootstrap.
Network hand_rolled(const std::vector<NodeId>& ids, std::size_t k,
                    int settle_rounds) {
  Network net(k);
  net.create(ids[0]);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_TRUE(net.join(ids[i], ids[0]));
    net.stabilize(2);
  }
  net.stabilize(settle_rounds);
  net.build_all_fingers();
  return net;
}

Network built(const std::vector<NodeId>& ids, std::size_t k,
              int settle_rounds) {
  Network net(k);
  net.bootstrap(ids, settle_rounds);
  return net;
}

std::vector<NodeId> random_ids(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(hashing::Sha1::hash_u64(rng()));
  }
  return ids;
}

std::vector<NodeId> sequential_ids(std::size_t n) {
  std::vector<NodeId> ids;
  for (std::uint64_t i = 0; i < n; ++i) {
    ids.push_back(hashing::Sha1::hash_u64(i));
  }
  return ids;
}

TEST(ChordBootstrapPin, MatchesTheHandRolledRing) {
  struct Case {
    std::vector<NodeId> ids;
    std::size_t k;
    int settle;
    RingDigest pinned;
  };
  const Case cases[] = {
      {random_ids(64, 7), 5, 4,
       {0x8324d186d9b70241, 0xb86461584ea627aa, 0x10e92505ee0965a7}},
      {sequential_ids(60), 5, 7,
       {0xa3f2c94db1aac006, 0xcd7f8096994977f3, 0x4ef0c28b9788a9eb}},
      {random_ids(40, 13), 4, 6,
       {0xf367415939f81f73, 0x7dac4eddf0981d92, 0xdf5d2cf690287484}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.ids.size()) + " nodes, k " +
                 std::to_string(c.k) + ", settle " + std::to_string(c.settle));
    const Network reference = hand_rolled(c.ids, c.k, c.settle);
    ASSERT_TRUE(reference.ring_consistent());
    EXPECT_EQ(digest(reference), c.pinned);
    EXPECT_EQ(digest(built(c.ids, c.k, c.settle)), c.pinned);
  }
}

/// Runs `f`, which must throw std::invalid_argument with message `what`.
template <typename F>
void expect_rejection(F f, const std::string& what) {
  try {
    f();
    ADD_FAILURE() << "expected std::invalid_argument: " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

TEST(ChordBootstrapPin, BuilderRejectsRingsAboveTheLimit) {
  const std::vector<NodeId> ids = sequential_ids(kMaxBootstrapNodes + 1);
  Network net;
  expect_rejection([&] { net.bootstrap(ids, 4); },
                   "Network::bootstrap: 4097 nodes (a bootstrap builds "
                   "1..4096)");
  EXPECT_EQ(net.size(), 0u) << "a rejected build creates nothing";
  expect_rejection([&] { net.bootstrap({}, 4); },
                   "Network::bootstrap: 0 nodes (a bootstrap builds "
                   "1..4096)");
}

TEST(ChordBootstrapPin, BuilderRejectsARepeatedId) {
  std::vector<NodeId> ids = sequential_ids(4);
  ids[3] = ids[1];
  Network net;
  expect_rejection([&] { net.bootstrap(ids, 4); },
                   "Network::bootstrap: duplicate id " + ids[1].to_short_hex());
}

TEST(ChordBootstrapPin, RunComputeRejectsRingsAboveTheLimit) {
  sim::Params p;
  p.initial_nodes = kMaxBootstrapNodes + 1;
  p.total_tasks = 100;
  expect_rejection([&] { run_compute(p, "none", 1); },
                   "run_compute: nodes 4097 exceeds the chord bootstrap "
                   "limit 4096");
}

}  // namespace
}  // namespace dhtlb::chord

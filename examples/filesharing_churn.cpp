// P2P file-sharing scenario — the BitTorrent/IPFS-style use case from
// the paper's introduction, driven on the real Chord protocol substrate
// rather than the tick simulator.
//
// A swarm of peers stores file chunks keyed by SHA-1 of their names.
// Peers join and fail abruptly (churn) while lookups continue; the
// maintenance protocol keeps the ring consistent and we measure lookup
// cost and message traffic throughout.  Finally an under-loaded peer
// performs a Sybil placement (hash search, paper ref [21]) to take over
// part of a hot arc — the primitive behind every strategy in src/lb.
//
// Usage: filesharing_churn [peers] [chunks]
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "chord/network.hpp"
#include "chord/sybil_placement.hpp"
#include "hashing/sha1.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dhtlb;

  std::size_t peers = 0;
  std::size_t chunks = 0;
  try {
    peers = support::positional_count(argc, argv, 1, "peers", 64);
    chunks = support::positional_count(argc, argv, 2, "chunks", 2000);
    if (peers > chord::kMaxBootstrapNodes) {
      throw std::invalid_argument(
          "peers: at most " + std::to_string(chord::kMaxBootstrapNodes) +
          ": " + std::to_string(peers));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "filesharing_churn: %s\n", e.what());
    return 1;
  }
  support::Rng rng(support::env_seed());

  // Bootstrap the swarm.
  chord::Network net(5);
  std::vector<chord::NodeId> initial(peers);
  for (chord::NodeId& id : initial) id = hashing::Sha1::hash_u64(rng());
  net.bootstrap(initial, 4);
  std::printf("swarm: %zu peers, ring consistent: %s\n", net.size(),
              net.ring_consistent() ? "yes" : "no");

  // Publish chunks: key = SHA1("<file>.part<i>"), owner = ring successor.
  std::map<chord::NodeId, std::uint64_t> stored;
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::string name =
        "ubuntu-24.04.iso.part" + std::to_string(i);
    const auto key = hashing::Sha1::hash_to_ring(name);
    ++stored[net.true_owner(key)];
  }
  std::uint64_t hottest = 0;
  chord::NodeId hot_peer;
  for (const auto& [peer, count] : stored) {
    if (count > hottest) {
      hottest = count;
      hot_peer = peer;
    }
  }
  std::printf("published %zu chunks; hottest peer %s stores %llu "
              "(fair share would be %llu)\n\n",
              chunks, hot_peer.to_short_hex().c_str(),
              static_cast<unsigned long long>(hottest),
              static_cast<unsigned long long>(chunks / peers));

  // Churn epochs: a few peers fail abruptly, a few join; lookups keep
  // resolving correctly after each maintenance settle.
  support::TextTable table({"epoch", "peers", "failed", "joined",
                            "mean hops", "messages", "lookups ok"});
  for (int epoch = 1; epoch <= 5; ++epoch) {
    auto ids = net.node_ids();
    std::size_t failed = 0, joined = 0;
    for (std::size_t i = 0; i < ids.size() / 16 + 1; ++i) {
      const auto victim = ids[rng.below(ids.size())];
      if (net.size() > 8 && net.contains(victim)) {
        net.fail(victim);
        ++failed;
      }
    }
    net.stabilize(6);
    for (std::size_t i = 0; i < failed; ++i) {
      const auto fresh = hashing::Sha1::hash_u64(rng());
      if (net.join(fresh, net.node_ids().front())) ++joined;
      net.stabilize(2);
    }
    net.stabilize(4);

    net.stats().reset();
    ids = net.node_ids();
    int ok = 0;
    double hops = 0.0;
    constexpr int kProbes = 200;
    for (int probe = 0; probe < kProbes; ++probe) {
      const auto key = hashing::Sha1::hash_to_ring(
          "ubuntu-24.04.iso.part" + std::to_string(rng.below(chunks)));
      const auto res = net.lookup(ids[rng.below(ids.size())], key);
      hops += res.hops;
      if (res.owner == net.true_owner(key)) ++ok;
    }
    table.add_row({std::to_string(epoch), std::to_string(net.size()),
                   std::to_string(failed), std::to_string(joined),
                   support::format_fixed(hops / kProbes, 2),
                   std::to_string(net.stats().total()),
                   std::to_string(ok) + "/" + std::to_string(kProbes)});
  }
  std::printf("%s\n", table.render().c_str());

  // Sybil placement into the hottest arc (if the hot peer survived the
  // churn epochs, otherwise into the current ring's widest visible arc).
  auto ids = net.node_ids();
  chord::NodeId target = net.contains(hot_peer) ? hot_peer : ids.back();
  // The arc of `target` is (predecessor, target]; find the predecessor
  // from ground truth ordering.
  auto it = std::find(ids.begin(), ids.end(), target);
  const chord::NodeId pred =
      it == ids.begin() ? ids.back() : *std::prev(it);
  const auto placement = chord::place_by_hash_search(pred, target, rng);
  if (placement) {
    std::printf("sybil placement into the hot arc took %llu SHA-1 draws "
                "(paper ref [21]: cheap)\n",
                static_cast<unsigned long long>(placement->attempts));
    net.join(placement->id, net.node_ids().front());
    net.stabilize(6);
    std::uint64_t relocated = 0;
    for (std::size_t i = 0; i < chunks; ++i) {
      const auto key = hashing::Sha1::hash_to_ring(
          "ubuntu-24.04.iso.part" + std::to_string(i));
      if (net.true_owner(key) == placement->id) ++relocated;
    }
    std::printf("the Sybil now serves %llu of the hot peer's chunks\n",
                static_cast<unsigned long long>(relocated));
  }
  return 0;
}

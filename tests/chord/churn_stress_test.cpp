// Parameterized churn stress on the Chord protocol substrate: rings of
// varying size endure repeated failure/join waves of varying intensity
// and must always re-converge to a consistent ring with exact lookups.
// This is the protocol-level counterpart of the paper's assumption that
// "a tick is enough time to accomplish at least one maintenance cycle"
// and that the network survives the churn the strategies induce.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "chord/network.hpp"
#include "hashing/sha1.hpp"
#include "support/rng.hpp"

namespace dhtlb::chord {
namespace {

using support::Rng;

struct StressCase {
  std::size_t ring_size;
  int waves;            // failure/join epochs
  std::size_t wave_kill;  // nodes failed per epoch
  int settle_rounds;    // maintenance rounds between epochs
};

std::string case_name(const ::testing::TestParamInfo<StressCase>& info) {
  const StressCase& c = info.param;
  std::string name = "n";
  name += std::to_string(c.ring_size);
  name += "_w";
  name += std::to_string(c.waves);
  name += "_k";
  name += std::to_string(c.wave_kill);
  name += "_r";
  name += std::to_string(c.settle_rounds);
  return name;
}

class ChurnStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ChurnStress, RingReconvergesAndLookupsStayExact) {
  const StressCase& c = GetParam();
  Network net(5);
  Rng rng(0xC0FFEE + c.ring_size);
  std::vector<NodeId> initial(c.ring_size);
  for (NodeId& id : initial) id = hashing::Sha1::hash_u64(rng());
  net.bootstrap(initial, 4);
  ASSERT_TRUE(net.ring_consistent());

  for (int wave = 0; wave < c.waves; ++wave) {
    // Abrupt failures...
    for (std::size_t k = 0; k < c.wave_kill && net.size() > 4; ++k) {
      const auto ids = net.node_ids();
      net.fail(ids[rng.below(ids.size())]);
    }
    net.stabilize(c.settle_rounds);
    // ...and compensating joins via a surviving bootstrap.
    const auto bootstrap = net.node_ids().front();
    for (std::size_t k = 0; k < c.wave_kill; ++k) {
      net.join(hashing::Sha1::hash_u64(rng()), bootstrap);
      net.stabilize(2);
    }
    net.stabilize(c.settle_rounds);

    ASSERT_TRUE(net.ring_consistent())
        << "wave " << wave << ": ring failed to re-converge";
    const auto ids = net.node_ids();
    for (int probe = 0; probe < 50; ++probe) {
      const auto key = rng.uniform_u160();
      EXPECT_EQ(net.lookup(ids[rng.below(ids.size())], key).owner,
                net.true_owner(key))
          << "wave " << wave;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Waves, ChurnStress,
    ::testing::Values(StressCase{16, 4, 2, 4},   // small ring, light churn
                      StressCase{32, 4, 4, 4},   // kill 12% per wave
                      StressCase{48, 3, 8, 6},   // kill 17% per wave
                      StressCase{64, 2, 16, 8},  // kill 25% per wave
                      StressCase{24, 6, 3, 3},   // many quick waves
                      StressCase{40, 2, 4, 2}),  // minimal settling
    case_name);

}  // namespace
}  // namespace dhtlb::chord

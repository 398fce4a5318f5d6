#include "support/env.hpp"

#include <cstdlib>
#include <stdexcept>

#include "support/number.hpp"

namespace dhtlb::support {

std::uint64_t env_u64(const std::string& name, std::uint64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  return parse_u64(name, raw);
}

namespace {

// A capped count knob: the value of `name`, or 0 when unset.
std::size_t env_capped(const std::string& name, std::size_t cap) {
  const std::uint64_t v = env_u64(name, 0);
  if (v > cap) {
    throw std::invalid_argument(name + ": above the cap of " +
                                std::to_string(cap) + ": " +
                                std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t env_trials(std::size_t fallback) {
  const std::size_t v = env_capped("DHTLB_TRIALS", kMaxEnvTrials);
  return v == 0 ? fallback : v;
}

std::uint64_t env_seed() { return env_u64("DHTLB_SEED", 0x5EEDBA5EULL); }

std::size_t env_threads() {
  return env_capped("DHTLB_THREADS", kMaxEnvThreads);
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

}  // namespace dhtlb::support

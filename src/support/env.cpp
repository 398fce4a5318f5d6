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

std::size_t env_trials(std::size_t fallback) {
  const std::uint64_t v = env_u64("DHTLB_TRIALS", 0);
  return v == 0 ? fallback : static_cast<std::size_t>(v);
}

std::uint64_t env_seed() { return env_u64("DHTLB_SEED", 0x5EEDBA5EULL); }

std::size_t env_threads() {
  const std::uint64_t v = env_u64("DHTLB_THREADS", 0);
  if (v > kMaxEnvThreads) {
    throw std::invalid_argument("DHTLB_THREADS: above the cap of " +
                                std::to_string(kMaxEnvThreads) + ": " +
                                std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

}  // namespace dhtlb::support

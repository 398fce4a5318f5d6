// Environment-variable knobs shared by the bench/reproduction binaries.
//
// The paper averages most cells over 100 trials.  Full fidelity is
// reproducible here but takes a while on a laptop, so each reproduction
// binary honours:
//   DHTLB_TRIALS  — override the trial count (0/unset = binary's default)
//   DHTLB_SEED    — override the base RNG seed
//   DHTLB_THREADS — worker threads for the trial fan or the engine's
//                   shard pool (0/unset = all cores)
// EXPERIMENTS.md records which settings produced the committed numbers.
// Only programs (bench/, examples/) call these; library code takes the
// values as arguments (the env-read rule of scripts/lint_determinism.py).
#pragma once

#include <cstdint>
#include <string>

namespace dhtlb::support {

/// Reads an unsigned integer env var; returns fallback when unset, empty,
/// or unparseable.
std::uint64_t env_u64(const std::string& name, std::uint64_t fallback);

/// Trial count for a reproduction binary: DHTLB_TRIALS or the default.
std::size_t env_trials(std::size_t fallback);

/// Base seed: DHTLB_SEED or the project-wide default 0x5EEDBA5E.
std::uint64_t env_seed();

/// Thread count for trial fans: DHTLB_THREADS or 0 (= hardware).
std::size_t env_threads();

/// Reads a string env var; returns fallback when unset or empty.
std::string env_string(const std::string& name, const std::string& fallback);

/// Reads a boolean env var: "0"/"false"/"off" → false, anything else
/// non-empty → true, unset/empty → fallback.
bool env_flag(const std::string& name, bool fallback);

}  // namespace dhtlb::support

// Environment-variable knobs shared by the bench/reproduction binaries.
//
// The paper averages most cells over 100 trials.  Full fidelity is
// reproducible here but takes a while on a laptop, so each reproduction
// binary honours:
//   DHTLB_TRIALS  — override the trial count (0/unset = binary's
//                   default, at most kMaxEnvTrials)
//   DHTLB_SEED    — override the base RNG seed
//   DHTLB_THREADS — worker threads for the trial fan or the engine's
//                   shard pool (0/unset = all cores, at most
//                   kMaxEnvThreads)
// EXPERIMENTS.md records which settings produced the committed numbers.
// Only programs (bench/, examples/) call these; library code takes the
// values as arguments (the env-read rule of scripts/lint_determinism.py).
//
// A set integer knob must be a plain decimal (the integer grammar of
// support/number.hpp): garbage, signed, padded and overflowing values
// throw std::invalid_argument naming the variable, so a typo fails the
// run instead of silently using the default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dhtlb::support {

/// Upper bound on DHTLB_THREADS: a pool this large is already far past
/// any useful fan, and a typo must not spawn unbounded threads.
inline constexpr std::size_t kMaxEnvThreads = 1024;

/// Upper bound on DHTLB_TRIALS, 100x the paper's 100: trial fans build
/// their whole (cell, trial) job list before anything runs, so a typo
/// must not allocate an unbounded one.
inline constexpr std::size_t kMaxEnvTrials = 10000;

/// Reads an unsigned integer env var; returns fallback when unset or
/// empty.  Throws std::invalid_argument naming `name` when the value is
/// not a decimal integer, is negative or overflows 64 bits.
std::uint64_t env_u64(const std::string& name, std::uint64_t fallback);

/// Trial count for a reproduction binary: DHTLB_TRIALS or the default.
/// Throws std::invalid_argument above kMaxEnvTrials.
std::size_t env_trials(std::size_t fallback);

/// Base seed: DHTLB_SEED or the project-wide default 0x5EEDBA5E.
std::uint64_t env_seed();

/// Thread count for trial fans: DHTLB_THREADS or 0 (= hardware).
/// Throws std::invalid_argument above kMaxEnvThreads.
std::size_t env_threads();

/// Reads a string env var; returns fallback when unset or empty.
std::string env_string(const std::string& name, const std::string& fallback);

}  // namespace dhtlb::support

// Scenario fuzzing: a seeded event-grammar generator over the full
// `.scn` vocabulary, plus the canonical emitter and the ddmin-style
// shrinker that turn it into a correctness campaign.
//
// The generator is a pure function of (profile, seed): the same pair
// always yields the same Script, bit for bit, on every platform — the
// property dhtlb_fuzz re-checks before every run and REPRO.txt lines rely
// on.  Profiles
// shape the event mix (churn bursts, membership storms, hotspot floods,
// strategy hot-swaps, chord fault storms, streamed provisioning); the
// "mixed" profile draws from the whole sim vocabulary and is the
// default campaign workload.
//
// Every generated script is valid by construction AND by contract:
// emit_script() produces canonical text that Script::parse must accept,
// and re-emitting the parsed form must reproduce the text byte for byte
// (the generate → parse → re-emit gate in tests/scenario/fuzz_test.cpp).
// The oracle for a *run* is external: the invariant auditor plus
// cross-thread telemetry comparison, wired up by the dhtlb_fuzz runner.
//
// When a run fails, shrink_script() minimizes the script against a
// caller-supplied failure predicate: first ddmin over whole event
// blocks (subsets of an increasing `at` sequence stay increasing, so
// every candidate is still valid), then greedy per-event trimming
// inside the surviving blocks.  The result is the smallest script the
// predicate still rejects — what lands in the failure artifact next to
// the repro command.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/script.hpp"

namespace dhtlb::scenario {

/// Every generator profile, in a fixed order (CLI listing + sweeps).
std::vector<std::string_view> fuzz_profiles();

/// True iff `profile` names a known generator profile.
bool is_fuzz_profile(std::string_view profile);

/// Deterministically generates one valid scenario from (profile, seed).
/// The script's own `seed` header is derived from `seed`, so running it
/// is reproducible from the pair alone.  Throws std::invalid_argument
/// on an unknown profile.
Script generate_script(std::string_view profile, std::uint64_t seed);

/// Canonical `.scn` text for a script: fixed header order, every
/// defaulted value explicit, `every` blocks always written as
/// `every P from F until U`.  parse(emit(s)) reproduces the script and
/// emit(parse(emit(s))) is byte-identical to emit(s).
std::string emit_script(const Script& script);

/// Minimizes `script` against `still_fails` (which must return true for
/// the input script).  Removes event blocks ddmin-style, then trims
/// events inside blocks, re-validating each candidate through
/// parse(emit(...)) so only well-formed scripts are ever probed.  The
/// returned script still satisfies the predicate.
Script shrink_script(const Script& script,
                     const std::function<bool(const Script&)>& still_fails);

}  // namespace dhtlb::scenario

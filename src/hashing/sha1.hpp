// SHA-1 (RFC 3174 / FIPS 180-1), implemented from scratch.
//
// The paper generates every node ID and task key by "feeding random
// numbers into the SHA1 hash function"; the Zipf-like workload skew that
// motivates the whole system (Table I / Figure 1) is a direct consequence
// of hashing onto the 2^160 ring.  We implement the real algorithm rather
// than a stand-in so key distributions match the paper's generating
// process bit for bit.
//
// SHA-1 is cryptographically broken for collision resistance; it is used
// here (as in Chord and the paper) purely as a well-distributed hash onto
// a 160-bit ring, never for security.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "support/uint160.hpp"

namespace dhtlb::hashing {

/// Incremental SHA-1 hasher.
///
/// Usage:
///   Sha1 h;
///   h.update(buf1); h.update(buf2);
///   auto digest = h.finish();   // 20 bytes; h must then be reset()
class Sha1 {
 public:
  using Digest = std::array<std::uint8_t, 20>;

  Sha1() { reset(); }

  /// Restores the initial state so the object can hash another message.
  void reset();

  /// Absorbs more message bytes.  May be called any number of times
  /// before finish().
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  }

  /// Applies padding and returns the digest.  The hasher is left in a
  /// finished state; call reset() before reuse.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view data);

  /// Hashes an 8-byte little-endian encoding of `value` — the project's
  /// canonical "feed a random number into SHA-1" primitive for producing
  /// node IDs and task keys, per the paper's setup (§V).  One value at a
  /// time, for draws that interleave with other work (a joining node's
  /// ID, a Sybil's candidate position).
  static support::Uint160 hash_u64(std::uint64_t value);

  /// out[i] = hash_u64(values[i]) for every i; the spans must be equal
  /// in size.  The bulk form behind world construction's IDs and keys,
  /// streamed task arrivals and the zipf key universe: on AVX-512F CPUs
  /// it hashes sixteen values per kernel call, several times the
  /// throughput of one-at-a-time hash_u64.  Callers draw their raw
  /// values exactly as a hash_u64 loop would, then hash them here, so
  /// outputs are bit-identical either way.
  static void hash_u64_batch(std::span<const std::uint64_t> values,
                             std::span<support::Uint160> out);

  /// Hashes arbitrary text to a ring position (e.g. filenames in the
  /// file-sharing example).
  static support::Uint160 hash_to_ring(std::string_view text);

  /// Renders a digest as 40 lowercase hex digits.
  static std::string to_hex(const Digest& digest);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;       // bytes currently in buffer_
  std::uint64_t total_bytes_ = 0;  // message length so far
};

}  // namespace dhtlb::hashing

// Internal: SHA-1 compression kernels and their runtime dispatch.
//
// Three kernels compute the one function, so the digest is bit-identical
// whichever runs — goldens and baselines cannot tell the difference:
//  * compress_scalar: the portable classic block-sha1 formulation;
//  * compress_ni: x86 SHA new instructions (sha1rnds4/sha1nexte/
//    sha1msg1/sha1msg2), several times faster than scalar for one block;
//  * hash_u64_x16: AVX-512F, sixteen one-block hash_u64 messages at
//    once, one per 32-bit lane — the bulk path of Sha1::hash_u64_batch.
//
// The one-block kernels take the block as 16 already-assembled
// big-endian words (host byte order), the form Sha1's buffering layer
// and u64_block naturally produce.  Dispatch is decided once per process
// via cpuid: compress() runs NI where the CPU has it, else scalar;
// hash_u64_batch runs hash_u64_x16 where the CPU has AVX-512F, else one
// compress() per value.  Non-x86 builds report both vector kernels
// unavailable.  tests/hashing cross-checks the kernels on random inputs.
#pragma once

#include <array>
#include <cstdint>

#include "support/uint160.hpp"

namespace dhtlb::hashing::detail {

inline constexpr std::array<std::uint32_t, 5> kSha1Init = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

/// The single padded block of hash_u64's message: the 8 little-endian
/// bytes of `value` as w0..w1, the 0x80 terminator bit directly after
/// them, zeros, and the 64-bit message length in w15.
inline void u64_block(std::uint64_t value, std::uint32_t w[16]) {
  const auto bswap = [](std::uint32_t x) {
    return (x >> 24) | ((x >> 8) & 0xFF00u) | ((x << 8) & 0xFF0000u) |
           (x << 24);
  };
  for (int t = 0; t < 16; ++t) w[t] = 0;
  w[0] = bswap(static_cast<std::uint32_t>(value));
  w[1] = bswap(static_cast<std::uint32_t>(value >> 32));
  w[2] = 0x80000000u;
  w[15] = 64;
}

/// Portable compression (classic block-sha1 formulation).
void compress_scalar(std::array<std::uint32_t, 5>& state,
                     const std::uint32_t block_words[16]);

/// True when this CPU executes the x86 SHA new instructions.
bool sha_ni_supported();

/// SHA-NI compression.  Call only when sha_ni_supported(); elsewhere it
/// falls back to compress_scalar so the symbol always links.
void compress_ni(std::array<std::uint32_t, 5>& state,
                 const std::uint32_t block_words[16]);

/// True when this CPU executes AVX-512F.
bool avx512_supported();

/// out[i] = Sha1::hash_u64(values[i]) for sixteen values at once.  Call
/// only when avx512_supported(); elsewhere it loops over hash_u64 so the
/// symbol always links.
void hash_u64_x16(const std::uint64_t values[16], support::Uint160 out[16]);

/// Dispatches one block to the fastest available one-block kernel.
inline void compress(std::array<std::uint32_t, 5>& state,
                     const std::uint32_t block_words[16]) {
  static const bool use_ni = sha_ni_supported();
  if (use_ni) {
    compress_ni(state, block_words);
  } else {
    compress_scalar(state, block_words);
  }
}

}  // namespace dhtlb::hashing::detail

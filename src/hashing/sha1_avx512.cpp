// Sixteen one-block SHA-1s at once on AVX-512F.
//
// Each 32-bit lane of a zmm register carries one message, so the five
// working variables and the sixteen schedule words are one vector each
// and every round is plain SIMD arithmetic: vpternlogd evaluates Ch,
// Parity and Maj in one instruction, vprold does the rotates.  The
// messages are hash_u64's 8-byte blocks (u64_block in sha1_block.hpp):
// only w0 and w1 vary, w2..w15 are the same constants in every lane, so
// for t = 2..15 K + w[t] is one broadcast constant and the schedule
// expansion folds whatever stays constant.  The rounds are written
// generically (the scalar kernel's role rotation, unrolled by a fold over
// the round index) and the compiler does the folding.
#include "hashing/sha1_block.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include <cstddef>
#include <utility>

#define DHTLB_AVX512F __attribute__((target("avx512f")))

namespace dhtlb::hashing::detail {

namespace {

using Vec = __m512i;

DHTLB_AVX512F inline Vec splat(std::uint32_t x) {
  return _mm512_set1_epi32(static_cast<int>(x));
}

DHTLB_AVX512F inline Vec add(Vec x, Vec y) { return _mm512_add_epi32(x, y); }

DHTLB_AVX512F inline Vec xor3(Vec x, Vec y, Vec z) {
  return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

// The zero-masked form with every lane selected is plain vprold; the
// unmasked intrinsic's undefined pass-through trips GCC 12's
// -Wuninitialized.
template <int K>
DHTLB_AVX512F inline Vec rotl(Vec x) {
  return _mm512_maskz_rol_epi32(static_cast<__mmask16>(0xFFFF), x, K);
}

// Big-endian words of the little-endian value bytes: a byte swap in
// each lane, assembled from two rotates and a bit-select (AVX-512F has
// no zmm byte shuffle).
DHTLB_AVX512F inline Vec bswap(Vec x) {
  return _mm512_ternarylogic_epi32(rotl<8>(x), rotl<24>(x),
                                   splat(0x00FF00FFu), 0xE4);
}

// Round t on the state held in s[]: with the scalar kernel's role
// rotation, a..e sit at s[(0 - t) mod 5] .. s[(4 - t) mod 5], so no
// value moves between registers.
template <std::size_t T>
DHTLB_AVX512F inline void step(Vec (&s)[5], Vec (&w)[16]) {
  constexpr std::size_t a = (5 - T % 5) % 5;
  constexpr std::size_t b = (a + 1) % 5;
  constexpr std::size_t c = (a + 2) % 5;
  constexpr std::size_t d = (a + 3) % 5;
  constexpr std::size_t e = (a + 4) % 5;
  if constexpr (T >= 16) {
    w[T & 15] = rotl<1>(xor3(w[(T - 3) & 15], w[(T - 8) & 15],
                             _mm512_xor_si512(w[(T - 14) & 15], w[T & 15])));
  }
  // Rounds 0-19 Ch, 40-59 Maj, the rest Parity: one vpternlogd each.
  constexpr int kBoolean = T < 20 ? 0xCA : (T >= 40 && T < 60) ? 0xE8 : 0x96;
  constexpr std::uint32_t k = T < 20   ? 0x5A827999u
                              : T < 40 ? 0x6ED9EBA1u
                              : T < 60 ? 0x8F1BBCDCu
                                       : 0xCA62C1D6u;
  const Vec f = _mm512_ternarylogic_epi32(s[b], s[c], s[d], kBoolean);
  s[e] = add(add(s[e], rotl<5>(s[a])), add(f, add(splat(k), w[T & 15])));
  s[b] = rotl<30>(s[b]);
}

template <std::size_t... T>
DHTLB_AVX512F inline void rounds(Vec (&s)[5], Vec (&w)[16],
                                 std::index_sequence<T...>) {
  (step<T>(s, w), ...);
}

}  // namespace

bool avx512_supported() { return __builtin_cpu_supports("avx512f"); }

DHTLB_AVX512F void hash_u64_x16(const std::uint64_t values[16],
                                support::Uint160 out[16]) {
  // Lane l takes value l: its low dword becomes w0, its high dword w1.
  const Vec lo_idx = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12,
                                      10, 8, 6, 4, 2, 0);
  const Vec hi_idx = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13,
                                      11, 9, 7, 5, 3, 1);
  const Vec v0 = _mm512_loadu_si512(values);
  const Vec v1 = _mm512_loadu_si512(values + 8);

  std::uint32_t block[16] = {};
  u64_block(0, block);  // the constant words w2..w15
  Vec w[16];
  w[0] = bswap(_mm512_permutex2var_epi32(v0, lo_idx, v1));
  w[1] = bswap(_mm512_permutex2var_epi32(v0, hi_idx, v1));
  for (std::size_t t = 2; t < 16; ++t) w[t] = splat(block[t]);

  Vec s[5];
  for (std::size_t i = 0; i < 5; ++i) s[i] = splat(kSha1Init[i]);
  rounds(s, w, std::make_index_sequence<80>{});

  alignas(64) std::uint32_t digest[5][16];
  for (std::size_t i = 0; i < 5; ++i) {
    _mm512_store_si512(digest[i], add(s[i], splat(kSha1Init[i])));
  }
  for (std::size_t lane = 0; lane < 16; ++lane) {
    out[lane] = support::Uint160({digest[0][lane], digest[1][lane],
                                  digest[2][lane], digest[3][lane],
                                  digest[4][lane]});
  }
}

}  // namespace dhtlb::hashing::detail

#undef DHTLB_AVX512F

#else  // non-x86: the 16-lane kernel is never selected; keep the symbols.

#include "hashing/sha1.hpp"

namespace dhtlb::hashing::detail {

bool avx512_supported() { return false; }

void hash_u64_x16(const std::uint64_t values[16], support::Uint160 out[16]) {
  for (int lane = 0; lane < 16; ++lane) {
    out[lane] = Sha1::hash_u64(values[lane]);
  }
}

}  // namespace dhtlb::hashing::detail

#endif

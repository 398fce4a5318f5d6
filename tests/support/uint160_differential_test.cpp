// Differential tests: Uint160 arithmetic restricted to 64-bit operands
// against native std::uint64_t as ground truth (random operand pairs,
// every operation whose result fits or wraps identically in 64 bits),
// and full-width add/subtract, bit_length and pow2 against a reference
// built from unsigned __int128 on the low 128 bits plus the top limb.
#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::support {
namespace {

class U160Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(U160Differential, MatchesNative64BitArithmetic) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const Uint160 wa{a}, wb{b};

    // Addition: low 64 bits must match native wrapping addition, and
    // the carry must land in bit 64 exactly when native overflows.
    const Uint160 sum = wa + wb;
    EXPECT_EQ(sum.low64(), a + b);
    const bool carried = a + b < a;
    EXPECT_EQ(sum.limbs()[2] & 1u, carried ? 1u : 0u);

    // Subtraction where no borrow leaves the low 64 bits.
    if (a >= b) {
      EXPECT_EQ((wa - wb).low64(), a - b);
      EXPECT_TRUE((wa - wb).high64() == 0);
    }

    // Ordering matches native ordering for 64-bit-ranged values.
    EXPECT_EQ(wa < wb, a < b);
    EXPECT_EQ(wa == wb, a == b);

    // Shifts within the low word.
    const int s = static_cast<int>(rng.below(64));
    EXPECT_EQ(wa.shr(s).low64() & (s == 0 ? ~0ULL : ((1ULL << (64 - s)) - 1)),
              a >> s);

    // mul_small / div_small against native 128-bit truth.
    const auto m = static_cast<std::uint32_t>(rng.below(0xFFFFFFFFULL) + 1);
    __extension__ using U128 = unsigned __int128;
    const U128 prod = static_cast<U128>(a) * m;
    const Uint160 wprod = wa.mul_small(m);
    EXPECT_EQ(wprod.low64(), static_cast<std::uint64_t>(prod));
    EXPECT_EQ(wprod.limbs()[2],
              static_cast<std::uint32_t>(prod >> 64));
    EXPECT_EQ(wa.div_small(m).low64(), a / m);

    // bit_length matches std::bit_width semantics.
    int width = 0;
    for (std::uint64_t v = a; v != 0; v >>= 1) ++width;
    EXPECT_EQ(wa.bit_length(), width);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, U160Differential,
                         ::testing::Values(11, 22, 33, 44));

// Full-width reference: the low 128 bits as a native unsigned __int128,
// the top limb (bits 159..128) as a uint32 that wraps mod 2^32.
__extension__ using U128 = unsigned __int128;
struct Ref {
  std::uint32_t top = 0;
  U128 low = 0;
};

Ref to_ref(const Uint160& v) {
  const auto& l = v.limbs();
  Ref r;
  r.top = l[0];
  for (std::size_t i = 1; i < Uint160::kLimbs; ++i) r.low = r.low << 32 | l[i];
  return r;
}

Uint160 from_ref(const Ref& r) {
  std::array<std::uint32_t, Uint160::kLimbs> l{};
  l[0] = r.top;
  for (std::size_t i = 1; i < Uint160::kLimbs; ++i) {
    l[i] = static_cast<std::uint32_t>(r.low >> (32 * (Uint160::kLimbs - 1 - i)));
  }
  return Uint160{l};
}

Uint160 ref_sub(const Ref& a, const Ref& b) {
  const std::uint32_t borrow = a.low < b.low ? 1u : 0u;
  return from_ref({a.top - b.top - borrow, a.low - b.low});
}

Uint160 ref_add(const Ref& a, const Ref& b) {
  const U128 low = a.low + b.low;
  const std::uint32_t carry = low < a.low ? 1u : 0u;
  return from_ref({a.top + b.top + carry, low});
}

int ref_bit_length(const Ref& r) {
  if (r.top != 0) return 128 + static_cast<int>(std::bit_width(r.top));
  const auto hi = static_cast<std::uint64_t>(r.low >> 64);
  if (hi != 0) return 64 + static_cast<int>(std::bit_width(hi));
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(r.low)));
}

// Random limbs biased towards 0, 1 and all-ones, so borrow and carry
// chains run through several limbs far more often than on uniform ids.
Uint160 chain_prone(Rng& rng) {
  std::array<std::uint32_t, Uint160::kLimbs> l{};
  for (auto& limb : l) {
    switch (rng.below(4)) {
      case 0: limb = 0; break;
      case 1: limb = 1; break;
      case 2: limb = 0xFFFFFFFFu; break;
      default: limb = static_cast<std::uint32_t>(rng()); break;
    }
  }
  return Uint160{l};
}

TEST_P(U160Differential, FullWidthAddSubMatchInt128Reference) {
  Rng rng(GetParam());
  for (int i = 0; i < 4000; ++i) {
    const bool uniform = i % 2 == 0;
    const Uint160 a = uniform ? rng.uniform_u160() : chain_prone(rng);
    const Uint160 b = uniform ? rng.uniform_u160() : chain_prone(rng);
    const Ref ra = to_ref(a);
    const Ref rb = to_ref(b);
    ASSERT_EQ(from_ref(ra), a);
    EXPECT_EQ(a - b, ref_sub(ra, rb)) << a << " - " << b;
    EXPECT_EQ(b - a, ref_sub(rb, ra)) << b << " - " << a;
    EXPECT_EQ(a + b, ref_add(ra, rb)) << a << " + " << b;
    EXPECT_EQ((a - b) + b, a);
    EXPECT_EQ(a - a, Uint160::zero());
    EXPECT_EQ(a.bit_length(), ref_bit_length(ra)) << a;
    // Compound assignment takes the same path as the binary operator.
    Uint160 c = a;
    c -= b;
    EXPECT_EQ(c, a - b);
  }
}

TEST(U160FullWidth, BorrowChainsThroughEveryLimb) {
  const Uint160 one{1};
  EXPECT_EQ(Uint160::zero() - one, Uint160::max());
  EXPECT_EQ(Uint160::max() + one, Uint160::zero());
  EXPECT_EQ(Uint160::zero() - Uint160::max(), one);
  // 2^(32k) - 1: the borrow ripples through the k low limbs, leaving
  // them all ones and the limbs above untouched (zero).
  for (int k = 1; k < Uint160::kLimbs; ++k) {
    const Uint160 v = Uint160::pow2(32 * k) - one;
    for (int i = 0; i < Uint160::kLimbs; ++i) {
      const bool low = i >= Uint160::kLimbs - k;
      EXPECT_EQ(v.limbs()[static_cast<std::size_t>(i)],
                low ? 0xFFFFFFFFu : 0u)
          << "k " << k << " limb " << i;
    }
    EXPECT_EQ(v.bit_length(), 32 * k);
    EXPECT_EQ(v + one, Uint160::pow2(32 * k));
    // The same chain above a set top bit stops short of it.
    const Uint160 top = Uint160::pow2(159);
    EXPECT_EQ((top + Uint160::pow2(32 * k)) - one, top + v);
  }
  // Every single-bit borrow: 2^k - 1 has exactly the k low bits set.
  for (int k = 1; k < Uint160::kBits; ++k) {
    const Uint160 v = Uint160::pow2(k) - one;
    EXPECT_EQ(v.bit_length(), k);
    EXPECT_EQ(v, Uint160::max().shr(Uint160::kBits - k));
  }
}

TEST(U160FullWidth, Pow2AndBitLengthOnEveryBit) {
  for (int k = 0; k < Uint160::kBits; ++k) {
    const Uint160 p = Uint160::pow2(k);
    EXPECT_EQ(p.bit_length(), k + 1);
    EXPECT_EQ(p, Uint160{1}.shl(k));
    Ref expect;
    if (k >= 128) {
      expect.top = 1u << (k - 128);
    } else {
      expect.low = U128{1} << k;
    }
    EXPECT_EQ(p, from_ref(expect)) << "k " << k;
    // Setting every lower bit leaves the width unchanged.
    EXPECT_EQ((p + (p - Uint160{1})).bit_length(), k + 1);
  }
  EXPECT_EQ(Uint160::pow2(Uint160::kBits), Uint160::zero());
  EXPECT_EQ(Uint160::pow2(-1), Uint160::zero());
  EXPECT_EQ(Uint160::zero().bit_length(), 0);
  EXPECT_EQ(Uint160::max().bit_length(), Uint160::kBits);
}

}  // namespace
}  // namespace dhtlb::support

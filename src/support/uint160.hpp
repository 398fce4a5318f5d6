// 160-bit unsigned integer for Chord identifier-space arithmetic.
//
// Chord (and the paper under reproduction) place node IDs and task keys on
// a ring of size 2^160 — the output space of SHA-1.  All identifier math
// (comparison, modular add/sub, clockwise distance, midpoints, scaling) is
// done on this type.  The representation is five 32-bit limbs, most
// significant limb first, which makes lexicographic limb comparison equal
// to numeric comparison and keeps hex formatting trivial.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dhtlb::support {

/// Unsigned 160-bit integer with wrapping (mod 2^160) arithmetic.
///
/// Invariants: none beyond the fixed-width representation; all operations
/// are total and wrap modulo 2^160, matching arithmetic on the Chord ring.
class Uint160 {
 public:
  static constexpr int kBits = 160;
  static constexpr int kLimbs = 5;           // 5 x 32-bit, big-endian limbs
  static constexpr int kHexDigits = 40;

  /// Zero value.
  constexpr Uint160() = default;

  /// Widening construction from a 64-bit value (occupies the low bits).
  constexpr explicit Uint160(std::uint64_t low) {
    limbs_[3] = static_cast<std::uint32_t>(low >> 32);
    limbs_[4] = static_cast<std::uint32_t>(low);
  }

  /// Constructs from explicit limbs, most significant first.
  constexpr explicit Uint160(const std::array<std::uint32_t, kLimbs>& limbs)
      : limbs_(limbs) {}

  /// The additive identity (also the "origin" of the ring).
  static constexpr Uint160 zero() { return Uint160{}; }

  /// The maximum representable value, 2^160 - 1.
  static constexpr Uint160 max() {
    Uint160 v;
    for (auto& limb : v.limbs_) limb = 0xFFFFFFFFu;
    return v;
  }

  /// 2^k for k in [0, 160).  Used to build Chord finger offsets.
  static constexpr Uint160 pow2(int k);

  /// Parses a hex string of up to 40 digits (no 0x prefix required but
  /// accepted).  Returns zero on an empty string.  Throws
  /// std::invalid_argument on non-hex characters or overlong input.
  static Uint160 from_hex(std::string_view hex);

  /// Builds a value from 20 big-endian bytes (e.g. a SHA-1 digest).
  static constexpr Uint160 from_bytes(const std::array<std::uint8_t, 20>& b);

  /// Serializes to 20 big-endian bytes.
  constexpr std::array<std::uint8_t, 20> to_bytes() const;

  /// Lowercase, zero-padded 40-digit hex rendering.
  std::string to_hex() const;

  /// Short human-readable form: first 8 hex digits followed by an ellipsis
  /// marker — handy in logs where full IDs are noise.
  std::string to_short_hex() const;

  constexpr const std::array<std::uint32_t, kLimbs>& limbs() const {
    return limbs_;
  }

  /// Low 64 bits (truncating).  Useful for hashing/bucketing.
  constexpr std::uint64_t low64() const {
    return (static_cast<std::uint64_t>(limbs_[3]) << 32) | limbs_[4];
  }

  /// High 64 bits (bits 159..96).
  constexpr std::uint64_t high64() const {
    return (static_cast<std::uint64_t>(limbs_[0]) << 32) | limbs_[1];
  }

  /// Converts to a double in [0, 1): this / 2^160.  Exact enough for
  /// plotting ring positions (Figures 2-3 of the paper).
  double to_unit_interval() const;

  constexpr bool is_zero() const {
    for (auto limb : limbs_)
      if (limb != 0) return false;
    return true;
  }

  /// Number of bits needed to represent the value: index of the highest
  /// set bit plus one; 0 for zero: std::bit_width of the most
  /// significant nonzero limb plus 32 per limb below it.
  constexpr int bit_length() const {
    for (int i = 0; i < kLimbs; ++i) {
      const std::uint32_t limb = limbs_[static_cast<std::size_t>(i)];
      if (limb != 0) {
        const int width = static_cast<int>(std::bit_width(limb));
        return (kLimbs - 1 - i) * 32 + width;
      }
    }
    return 0;
  }

  // --- wrapping arithmetic (mod 2^160) ----------------------------------
  constexpr Uint160& operator+=(const Uint160& rhs);
  constexpr Uint160& operator-=(const Uint160& rhs);
  friend constexpr Uint160 operator+(Uint160 lhs, const Uint160& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend constexpr Uint160 operator-(Uint160 lhs, const Uint160& rhs) {
    lhs -= rhs;
    return lhs;
  }

  /// Logical right shift by s bits, s in [0, 160].
  constexpr Uint160 shr(int s) const;
  /// Logical left shift by s bits, s in [0, 160] (wraps high bits away).
  constexpr Uint160 shl(int s) const;

  /// Multiplies by a 32-bit scalar modulo 2^160.
  constexpr Uint160 mul_small(std::uint32_t m) const;

  /// Divides by a 32-bit scalar (truncating); divisor must be nonzero.
  constexpr Uint160 div_small(std::uint32_t d) const;

  friend constexpr bool operator==(const Uint160&, const Uint160&) = default;
  friend constexpr std::strong_ordering operator<=>(const Uint160& a,
                                                    const Uint160& b) {
    for (std::size_t i = 0; i < kLimbs; ++i) {
      if (a.limbs_[i] != b.limbs_[i])
        return a.limbs_[i] <=> b.limbs_[i];
    }
    return std::strong_ordering::equal;
  }

 private:
  std::array<std::uint32_t, kLimbs> limbs_{};  // big-endian limb order
};

std::ostream& operator<<(std::ostream& os, const Uint160& v);

// --- inline definitions ---------------------------------------------------

constexpr Uint160 Uint160::pow2(int k) {
  Uint160 v;
  if (k >= 0 && k < kBits) {
    const int limb = kLimbs - 1 - k / 32;
    v.limbs_[static_cast<std::size_t>(limb)] = 1u << (k % 32);
  }
  return v;
}

constexpr Uint160 Uint160::from_bytes(const std::array<std::uint8_t, 20>& b) {
  Uint160 v;
  for (int i = 0; i < kLimbs; ++i) {
    const std::size_t o = static_cast<std::size_t>(i) * 4;
    v.limbs_[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(b[o]) << 24) |
        (static_cast<std::uint32_t>(b[o + 1]) << 16) |
        (static_cast<std::uint32_t>(b[o + 2]) << 8) |
        static_cast<std::uint32_t>(b[o + 3]);
  }
  return v;
}

constexpr std::array<std::uint8_t, 20> Uint160::to_bytes() const {
  std::array<std::uint8_t, 20> b{};
  for (int i = 0; i < kLimbs; ++i) {
    const std::uint32_t limb = limbs_[static_cast<std::size_t>(i)];
    const std::size_t o = static_cast<std::size_t>(i) * 4;
    b[o] = static_cast<std::uint8_t>(limb >> 24);
    b[o + 1] = static_cast<std::uint8_t>(limb >> 16);
    b[o + 2] = static_cast<std::uint8_t>(limb >> 8);
    b[o + 3] = static_cast<std::uint8_t>(limb);
  }
  return b;
}

constexpr Uint160& Uint160::operator+=(const Uint160& rhs) {
  std::uint64_t carry = 0;
  for (int i = kLimbs - 1; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t sum =
        static_cast<std::uint64_t>(limbs_[idx]) + rhs.limbs_[idx] + carry;
    limbs_[idx] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  return *this;  // overflow past bit 160 wraps, by design
}

constexpr Uint160& Uint160::operator-=(const Uint160& rhs) {
  // Branch-free: a limb difference below zero wraps the 64-bit result
  // past 2^63, so its sign bit is the borrow into the next limb (a
  // per-limb `if (diff < 0)` mispredicts on random ids).
  std::uint64_t borrow = 0;
  for (int i = kLimbs - 1; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t diff =
        static_cast<std::uint64_t>(limbs_[idx]) - rhs.limbs_[idx] - borrow;
    limbs_[idx] = static_cast<std::uint32_t>(diff);
    borrow = diff >> 63;
  }
  return *this;  // underflow wraps mod 2^160, by design
}

constexpr Uint160 Uint160::shr(int s) const {
  if (s <= 0) return *this;
  if (s >= kBits) return Uint160{};
  Uint160 out;
  const int limb_shift = s / 32;
  const int bit_shift = s % 32;
  for (int i = kLimbs - 1; i >= 0; --i) {
    const int src = i - limb_shift;
    if (src < 0) break;
    std::uint64_t v = static_cast<std::uint64_t>(
        limbs_[static_cast<std::size_t>(src)]);
    if (bit_shift != 0) {
      v >>= bit_shift;
      if (src - 1 >= 0) {
        v |= static_cast<std::uint64_t>(
                 limbs_[static_cast<std::size_t>(src - 1)])
             << (32 - bit_shift);
      }
    }
    out.limbs_[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(v);
  }
  return out;
}

constexpr Uint160 Uint160::shl(int s) const {
  if (s <= 0) return *this;
  if (s >= kBits) return Uint160{};
  Uint160 out;
  const int limb_shift = s / 32;
  const int bit_shift = s % 32;
  for (int i = 0; i < kLimbs; ++i) {
    const int src = i + limb_shift;
    if (src >= kLimbs) break;
    std::uint64_t v =
        static_cast<std::uint64_t>(limbs_[static_cast<std::size_t>(src)])
        << bit_shift;
    if (bit_shift != 0 && src + 1 < kLimbs) {
      v |= limbs_[static_cast<std::size_t>(src + 1)] >> (32 - bit_shift);
    }
    out.limbs_[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(v);
  }
  return out;
}

constexpr Uint160 Uint160::mul_small(std::uint32_t m) const {
  Uint160 out;
  std::uint64_t carry = 0;
  for (int i = kLimbs - 1; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t prod =
        static_cast<std::uint64_t>(limbs_[idx]) * m + carry;
    out.limbs_[idx] = static_cast<std::uint32_t>(prod);
    carry = prod >> 32;
  }
  return out;  // carry past the top limb wraps, by design
}

constexpr Uint160 Uint160::div_small(std::uint32_t d) const {
  Uint160 out;
  std::uint64_t rem = 0;
  for (int i = 0; i < kLimbs; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t cur = (rem << 32) | limbs_[idx];
    out.limbs_[idx] = static_cast<std::uint32_t>(cur / d);
    rem = cur % d;
  }
  return out;
}

}  // namespace dhtlb::support

#include "hashing/sha1.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "hashing/sha1_block.hpp"
#include "support/check.hpp"

namespace dhtlb::hashing {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

}  // namespace

namespace detail {

// One SHA-1 compression over a prepared 16-word big-endian block,
// fully unrolled in the classic block-sha1 style: the message schedule
// lives in a 16-word circular buffer expanded in step with the rounds
// (no 80-word array, no store/reload round-trip), and the five working
// variables rotate *roles* between rounds instead of being shuffled
// through a temp.  The boolean forms are the standard 3-op equivalents
// of the spec's choose/majority expressions.  The SHA-NI twin lives in
// sha1_ni.cpp; detail::compress (sha1_block.hpp) picks one per process.
void compress_scalar(std::array<std::uint32_t, 5>& state,
                     const std::uint32_t block_words[16]) {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) w[t] = block_words[t];

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];

  // Schedule word for round t: the block itself for t < 16, then the
  // rot-xor expansion computed in place.
  const auto sched = [&w](int t) -> std::uint32_t {
    if (t < 16) return w[t];
    const std::uint32_t v = rotl32(w[(t - 3) & 15] ^ w[(t - 8) & 15] ^
                                       w[(t - 14) & 15] ^ w[t & 15],
                                   1);
    w[t & 15] = v;
    return v;
  };
  // One round with explicit variable roles; callers rotate the roles so
  // no data ever moves between the five registers.
  const auto rnd = [&sched](std::uint32_t va, std::uint32_t& vb,
                            [[maybe_unused]] std::uint32_t vc,
                            [[maybe_unused]] std::uint32_t vd,
                            std::uint32_t& ve, std::uint32_t f,
                            std::uint32_t k, int t) {
    ve += rotl32(va, 5) + f + k + sched(t);
    vb = rotl32(vb, 30);
  };
  const auto ch = [](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return z ^ (x & (y ^ z));
  };
  const auto par = [](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return x ^ y ^ z;
  };
  const auto maj = [](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return (x & y) | (z & (x | y));
  };

  for (int t = 0; t < 20; t += 5) {
    rnd(a, b, c, d, e, ch(b, c, d), 0x5A827999u, t);
    rnd(e, a, b, c, d, ch(a, b, c), 0x5A827999u, t + 1);
    rnd(d, e, a, b, c, ch(e, a, b), 0x5A827999u, t + 2);
    rnd(c, d, e, a, b, ch(d, e, a), 0x5A827999u, t + 3);
    rnd(b, c, d, e, a, ch(c, d, e), 0x5A827999u, t + 4);
  }
  for (int t = 20; t < 40; t += 5) {
    rnd(a, b, c, d, e, par(b, c, d), 0x6ED9EBA1u, t);
    rnd(e, a, b, c, d, par(a, b, c), 0x6ED9EBA1u, t + 1);
    rnd(d, e, a, b, c, par(e, a, b), 0x6ED9EBA1u, t + 2);
    rnd(c, d, e, a, b, par(d, e, a), 0x6ED9EBA1u, t + 3);
    rnd(b, c, d, e, a, par(c, d, e), 0x6ED9EBA1u, t + 4);
  }
  for (int t = 40; t < 60; t += 5) {
    rnd(a, b, c, d, e, maj(b, c, d), 0x8F1BBCDCu, t);
    rnd(e, a, b, c, d, maj(a, b, c), 0x8F1BBCDCu, t + 1);
    rnd(d, e, a, b, c, maj(e, a, b), 0x8F1BBCDCu, t + 2);
    rnd(c, d, e, a, b, maj(d, e, a), 0x8F1BBCDCu, t + 3);
    rnd(b, c, d, e, a, maj(c, d, e), 0x8F1BBCDCu, t + 4);
  }
  for (int t = 60; t < 80; t += 5) {
    rnd(a, b, c, d, e, par(b, c, d), 0xCA62C1D6u, t);
    rnd(e, a, b, c, d, par(a, b, c), 0xCA62C1D6u, t + 1);
    rnd(d, e, a, b, c, par(e, a, b), 0xCA62C1D6u, t + 2);
    rnd(c, d, e, a, b, par(d, e, a), 0xCA62C1D6u, t + 3);
    rnd(b, c, d, e, a, par(c, d, e), 0xCA62C1D6u, t + 4);
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

}  // namespace detail

void Sha1::reset() {
  state_ = detail::kSha1Init;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  // Top up a partially filled block first.
  if (buffered_ != 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  // Whole blocks straight from the input.
  while (data.size() - offset >= 64) {
    process_block(data.data() + offset);
    offset += 64;
  }
  // Stash the tail.
  const std::size_t tail = data.size() - offset;
  if (tail != 0) {
    std::memcpy(buffer_.data(), data.data() + offset, tail);
    buffered_ = tail;
  }
}

Sha1::Digest Sha1::finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update(std::span(&pad_byte, 1));
  total_bytes_ -= 1;  // padding is not message content
  static constexpr std::uint8_t kZeros[64] = {};
  while (buffered_ != 56) {
    const std::size_t need = buffered_ < 56 ? 56 - buffered_ : 64 - buffered_;
    update(std::span(kZeros, need));
    total_bytes_ -= need;
  }
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span(len_bytes, 8));

  Digest digest{};
  for (int i = 0; i < 5; ++i) {
    const std::uint32_t word = state_[static_cast<std::size_t>(i)];
    digest[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(word >> 24);
    digest[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(word >> 16);
    digest[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(word >> 8);
    digest[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(word);
  }
  return digest;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  detail::compress(state_, w);
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Sha1::Digest Sha1::hash(std::string_view data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

support::Uint160 Sha1::hash_u64(std::uint64_t value) {
  // Single-block fast path: an 8-byte message always pads to exactly one
  // block, so the schedule is built in place — no buffering, no
  // incremental padding.  It must stay bit-identical to
  // hash(span_of_le_bytes(value)), which tests/hashing asserts.  The
  // digest's big-endian words are the Uint160's limbs.
  std::uint32_t w[16];
  detail::u64_block(value, w);
  std::array<std::uint32_t, 5> state = detail::kSha1Init;
  detail::compress(state, w);
  return support::Uint160(state);
}

void Sha1::hash_u64_batch(std::span<const std::uint64_t> values,
                          std::span<support::Uint160> out) {
  DHTLB_CHECK(out.size() == values.size(),
              "Sha1::hash_u64_batch: " << out.size() << " outputs for "
                                       << values.size() << " values");
  static const bool use_x16 = detail::avx512_supported();
  if (!use_x16) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      out[i] = hash_u64(values[i]);
    }
    return;
  }
  std::size_t i = 0;
  for (; i + 16 <= values.size(); i += 16) {
    detail::hash_u64_x16(&values[i], &out[i]);
  }
  if (i == values.size()) return;
  // The tail runs padded to a full batch: one kernel call costs about
  // four one-block hashes.
  std::uint64_t in[16] = {};
  support::Uint160 digests[16];
  const std::size_t tail = values.size() - i;
  std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(i), tail, in);
  detail::hash_u64_x16(in, digests);
  std::copy_n(digests, tail, out.begin() + static_cast<std::ptrdiff_t>(i));
}

support::Uint160 Sha1::hash_to_ring(std::string_view text) {
  return support::Uint160::from_bytes(hash(text));
}

std::string Sha1::to_hex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(40, '0');
  for (std::size_t i = 0; i < digest.size(); ++i) {
    out[2 * i] = kHex[digest[i] >> 4];
    out[2 * i + 1] = kHex[digest[i] & 0xF];
  }
  return out;
}

}  // namespace dhtlb::hashing

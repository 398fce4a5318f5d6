#include "hashing/sha1.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "hashing/sha1_block.hpp"
#include "support/rng.hpp"

namespace dhtlb::hashing {
namespace {

std::string hex(std::string_view message) {
  return Sha1::to_hex(Sha1::hash(message));
}

// RFC 3174 / FIPS 180-1 reference vectors.
TEST(Sha1, Rfc3174TestVector1) {
  EXPECT_EQ(hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Rfc3174TestVector2) {
  EXPECT_EQ(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha1::to_hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

// Messages whose padded length straddles the 56-byte block boundary are
// the classic off-by-one spot in SHA-1 implementations.
class Sha1PaddingBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1PaddingBoundary, MatchesIncrementalOneByteAtATime) {
  const std::size_t len = GetParam();
  std::string message(len, 'x');
  for (std::size_t i = 0; i < len; ++i) {
    message[i] = static_cast<char>('a' + (i % 26));
  }
  const auto oneshot = Sha1::hash(message);
  Sha1 h;
  for (char c : message) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finish(), oneshot) << "length " << len;
}

INSTANTIATE_TEST_SUITE_P(BoundaryLengths, Sha1PaddingBoundary,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65,
                                           119, 120, 121, 127, 128, 129, 255,
                                           256, 1000));

TEST(Sha1, SplitPointsDoNotAffectDigest) {
  const std::string message =
      "a moderately long message used to exercise chunked updates across "
      "several block boundaries 0123456789 0123456789 0123456789";
  const auto oneshot = Sha1::hash(message);
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha1 h;
    h.update(std::string_view(message).substr(0, split));
    h.update(std::string_view(message).substr(split));
    EXPECT_EQ(h.finish(), oneshot) << "split at " << split;
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update("first message");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(Sha1::to_hex(h.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, HashU64IsStable) {
  // Pin the project's ID-generation primitive: changing it would silently
  // re-randomize every experiment.
  const auto id = Sha1::hash_u64(0);
  EXPECT_EQ(id, Sha1::hash_u64(0));
  EXPECT_NE(id, Sha1::hash_u64(1));
  // Little-endian encoding of 0x0102030405060708 hashed:
  const auto a = Sha1::hash_u64(0x0102030405060708ULL);
  std::uint8_t bytes[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  const auto expected =
      support::Uint160::from_bytes(Sha1::hash(std::span(bytes, 8)));
  EXPECT_EQ(a, expected);
}

TEST(Sha1, HashU64ValuesSpreadAcrossTheRing) {
  // The whole premise of the paper: SHA-1 outputs cover the ring but not
  // evenly.  Sanity-check coverage of all four quadrants.
  int quadrant[4] = {0, 0, 0, 0};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto id = Sha1::hash_u64(i);
    quadrant[id.to_bytes()[0] >> 6] += 1;
  }
  for (int q = 0; q < 4; ++q) {
    EXPECT_GT(quadrant[q], 150) << "quadrant " << q;
  }
}

TEST(Sha1, HashToRingMatchesDigest) {
  const auto via_ring = Sha1::hash_to_ring("chunk-017.dat");
  const auto digest = Sha1::hash("chunk-017.dat");
  EXPECT_EQ(via_ring, support::Uint160::from_bytes(digest));
}

TEST(Sha1, DigestToHexFormatting) {
  Sha1::Digest d{};
  d[0] = 0xAB;
  d[19] = 0x01;
  const std::string h = Sha1::to_hex(d);
  EXPECT_EQ(h.size(), 40u);
  EXPECT_EQ(h.substr(0, 2), "ab");
  EXPECT_EQ(h.substr(38, 2), "01");
}

// --- kernels --------------------------------------------------------------
//
// Sha1 dispatches to one kernel per process, so on a SHA-NI host the
// public API never runs compress_scalar.  These tests call each kernel
// directly; a kernel the CPU lacks skips, naming the missing feature.

using Compress = void (*)(std::array<std::uint32_t, 5>&, const std::uint32_t*);

// Pads `message` (RFC 3174 §4) and runs every block through `kernel`.
std::string digest_with(Compress kernel, std::string_view message) {
  std::vector<std::uint8_t> bytes(message.begin(), message.end());
  const std::uint64_t bit_len = std::uint64_t{message.size()} * 8;
  bytes.push_back(0x80);
  while (bytes.size() % 64 != 56) bytes.push_back(0);
  for (int i = 7; i >= 0; --i) {
    bytes.push_back(static_cast<std::uint8_t>(bit_len >> (8 * i)));
  }
  std::array<std::uint32_t, 5> state = detail::kSha1Init;
  for (std::size_t off = 0; off < bytes.size(); off += 64) {
    std::uint32_t w[16];
    for (std::size_t t = 0; t < 16; ++t) {
      const std::uint8_t* b = &bytes[off + 4 * t];
      w[t] = (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
             (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
    }
    kernel(state, w);
  }
  return Sha1::to_hex(support::Uint160(state).to_bytes());
}

void expect_rfc3174_vectors(Compress kernel) {
  EXPECT_EQ(digest_with(kernel, "abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(
      digest_with(kernel,
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(digest_with(kernel, std::string(1'000'000, 'a')),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  std::string repeated;
  for (int i = 0; i < 80; ++i) repeated += "01234567";
  EXPECT_EQ(digest_with(kernel, repeated),
            "dea356a2cddd90c7a7ecedc5ebb563934f460452");
}

TEST(Sha1Kernels, ScalarPassesRfc3174Vectors) {
  expect_rfc3174_vectors(detail::compress_scalar);
}

TEST(Sha1Kernels, ShaNiPassesRfc3174Vectors) {
  if (!detail::sha_ni_supported()) GTEST_SKIP() << "CPU lacks SHA-NI";
  expect_rfc3174_vectors(detail::compress_ni);
}

TEST(Sha1Kernels, ShaNiMatchesScalarOnRandomBlocks) {
  if (!detail::sha_ni_supported()) GTEST_SKIP() << "CPU lacks SHA-NI";
  support::Rng rng(3174);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint32_t w[16];
    for (std::uint32_t& word : w) word = static_cast<std::uint32_t>(rng());
    std::array<std::uint32_t, 5> scalar{};
    for (std::uint32_t& word : scalar) word = static_cast<std::uint32_t>(rng());
    std::array<std::uint32_t, 5> ni = scalar;
    detail::compress_scalar(scalar, w);
    detail::compress_ni(ni, w);
    ASSERT_EQ(ni, scalar) << "trial " << trial;
  }
}

TEST(Sha1Kernels, SixteenLaneKernelMatchesHashU64) {
  if (!detail::avx512_supported()) GTEST_SKIP() << "CPU lacks AVX-512F";
  support::Rng rng(160);
  for (int trial = 0; trial < 500; ++trial) {
    std::uint64_t values[16];
    for (std::uint64_t& v : values) v = rng();
    values[trial % 16] = trial % 3 == 0   ? 0
                         : trial % 3 == 1 ? ~std::uint64_t{0}
                                          : std::uint64_t{1} << 63;
    support::Uint160 out[16];
    detail::hash_u64_x16(values, out);
    for (int lane = 0; lane < 16; ++lane) {
      ASSERT_EQ(out[lane], Sha1::hash_u64(values[lane]))
          << "trial " << trial << " lane " << lane;
    }
  }
}

TEST(Sha1, HashU64BatchMatchesHashU64AtEverySize) {
  support::Rng rng(64);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  sizes.push_back(4099);
  for (const std::size_t n : sizes) {
    std::vector<std::uint64_t> values(n);
    for (std::uint64_t& v : values) v = rng();
    // Edge values at the front, middle and back of the batch.
    const std::uint64_t edges[] = {0, ~std::uint64_t{0},
                                   std::uint64_t{1} << 63};
    for (std::size_t e = 0; e < 3 && e < n; ++e) {
      values[(e * n) / 3] = edges[e];
    }
    std::vector<support::Uint160> out(n);
    Sha1::hash_u64_batch(values, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], Sha1::hash_u64(values[i]))
          << "size " << n << " at " << i;
    }
  }
}

TEST(Sha1, HashU64OfEdgeValuesMatchesTheByteDigest) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{1} << 63}) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    EXPECT_EQ(Sha1::hash_u64(value),
              support::Uint160::from_bytes(Sha1::hash(std::span(bytes, 8))))
        << value;
  }
}

}  // namespace
}  // namespace dhtlb::hashing

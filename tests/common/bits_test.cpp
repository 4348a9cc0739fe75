#include "common/bits.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace silence {
namespace {

TEST(Bits, BytesToBitsLsbFirst) {
  const Bytes bytes = {0x01, 0x80, 0xA5};
  const Bits bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 24u);
  // 0x01: bit 0 set.
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[static_cast<size_t>(i)], 0);
  // 0x80: bit 7 set.
  EXPECT_EQ(bits[15], 1);
  EXPECT_EQ(bits[8], 0);
  // 0xA5 = 1010 0101: bits 0,2,5,7.
  EXPECT_EQ(bits[16], 1);
  EXPECT_EQ(bits[17], 0);
  EXPECT_EQ(bits[18], 1);
  EXPECT_EQ(bits[21], 1);
  EXPECT_EQ(bits[23], 1);
}

TEST(Bits, RoundTripBytesBitsBytes) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes original = rng.bytes(1 + trial * 7);
    EXPECT_EQ(bits_to_bytes(bytes_to_bits(original)), original);
  }
}

TEST(Bits, BitsToBytesRejectsPartialByte) {
  const Bits bits(13, 1);
  EXPECT_THROW(bits_to_bytes(bits), std::invalid_argument);
}

// The per-bit loop bits_to_bytes_into ran before it packed eight bits per
// byte; the oracle for the packed loop.
Bytes bits_to_bytes_per_bit(std::span<const std::uint8_t> bits) {
  Bytes bytes(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] & 1U) {
      bytes[i / 8] |= static_cast<std::uint8_t>(1U << (i % 8));
    }
  }
  return bytes;
}

TEST(Bits, BitsToBytesMatchesPerBitLoop) {
  Rng rng(9);
  for (const std::size_t n : {0u, 8u, 64u, 13120u}) {
    // Bit values other than 0/1 too: only bit 0 of each counts.
    const Bytes stream = rng.bytes(n);
    const Bits coin = rng.bits(n);
    for (const Bits& bits : {Bits(stream.begin(), stream.end()), coin}) {
      const Bytes expected = bits_to_bytes_per_bit(bits);
      EXPECT_EQ(bits_to_bytes(bits), expected) << n;
      // Into a reused buffer, larger and smaller than the result.
      Bytes out(n / 8 + 5, 0xff);
      bits_to_bytes_into(bits, out);
      EXPECT_EQ(out, expected) << n;
      out.assign(1, 0x5a);
      bits_to_bytes_into(bits, out);
      EXPECT_EQ(out, expected) << n;
    }
  }
  Bytes out;
  EXPECT_THROW(bits_to_bytes_into(Bits(13120 + 3, 1), out),
               std::invalid_argument);
}

TEST(Bits, UintConversionsMsbFirst) {
  const Bits bits = uint_to_bits(0b1011, 4);
  EXPECT_EQ(bits, (Bits{1, 0, 1, 1}));
  EXPECT_EQ(bits_to_uint(bits), 0b1011u);
}

TEST(Bits, UintRoundTripAllWidths) {
  Rng rng(7);
  for (int width = 1; width <= 64; ++width) {
    const std::uint64_t value =
        width == 64 ? rng.engine()()
                    : rng.engine()() & ((std::uint64_t{1} << width) - 1);
    EXPECT_EQ(bits_to_uint(uint_to_bits(value, width)), value)
        << "width " << width;
  }
}

TEST(Bits, UintToBitsRejectsBadCount) {
  EXPECT_THROW(uint_to_bits(0, -1), std::invalid_argument);
  EXPECT_THROW(uint_to_bits(0, 65), std::invalid_argument);
}

TEST(Bits, BitsToUintRejectsOversized) {
  const Bits bits(65, 0);
  EXPECT_THROW(bits_to_uint(bits), std::invalid_argument);
}

TEST(Bits, HammingDistance) {
  const Bits a = {0, 1, 1, 0, 1};
  const Bits b = {1, 1, 0, 0, 1};
  EXPECT_EQ(hamming_distance(a, b), 2u);
  EXPECT_EQ(hamming_distance(a, a), 0u);
}

TEST(Bits, HammingDistanceRejectsMismatch) {
  const Bits a(4, 0);
  const Bits b(5, 0);
  EXPECT_THROW(hamming_distance(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace silence

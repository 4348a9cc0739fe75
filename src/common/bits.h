// Bit-level utilities shared by the PHY and CoS layers.
//
// Throughout the code base a "bit vector" is a std::vector<uint8_t> whose
// elements are each 0 or 1.  This wastes memory relative to a packed
// representation but makes every PHY stage (scrambling, coding,
// interleaving) trivially indexable, which is what matters for a simulator.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace silence {

using Bits = std::vector<std::uint8_t>;
using Bytes = std::vector<std::uint8_t>;

// Unpacks bytes into bits, LSB of each byte first (802.11 bit ordering:
// the first bit on air is bit 0 of the first octet).
Bits bytes_to_bits(std::span<const std::uint8_t> bytes);

// Packs bits (LSB-first per byte) into bytes. The bit count must be a
// multiple of 8. Only bit 0 of each input byte counts.
Bytes bits_to_bytes(std::span<const std::uint8_t> bits);

// Same packing into a caller buffer (resized; capacity reused across
// calls). The bit count must be a multiple of 8. One pack_octet() per
// octet.
void bits_to_bytes_into(std::span<const std::uint8_t> bits, Bytes& bytes);

// Bit 0 of each of the eight bytes at `bits` (bits[0] into bit 0), as
// one octet: the multiply gathers the eight masked bits into the top
// byte without a carry between them.
inline std::uint8_t pack_octet(const std::uint8_t* bits) {
  std::uint64_t word;
  std::memcpy(&word, bits, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return static_cast<std::uint8_t>(
      ((word & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56);
}

// Interprets up to 64 bits as an unsigned integer, MSB first.
std::uint64_t bits_to_uint(std::span<const std::uint8_t> bits);

// Produces `count` bits of `value`, MSB first.
Bits uint_to_bits(std::uint64_t value, int count);

// Number of positions at which the two equal-length bit spans differ.
std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b);

}  // namespace silence

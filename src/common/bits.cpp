#include "common/bits.h"

#include <stdexcept>

namespace silence {

Bits bytes_to_bits(std::span<const std::uint8_t> bytes) {
  Bits bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t byte : bytes) {
    for (int i = 0; i < 8; ++i) {
      bits.push_back(static_cast<std::uint8_t>((byte >> i) & 1U));
    }
  }
  return bits;
}

Bytes bits_to_bytes(std::span<const std::uint8_t> bits) {
  Bytes bytes;
  bits_to_bytes_into(bits, bytes);
  return bytes;
}

void bits_to_bytes_into(std::span<const std::uint8_t> bits, Bytes& bytes) {
  if (bits.size() % 8 != 0) {
    throw std::invalid_argument("bits_to_bytes: bit count not a multiple of 8");
  }
  bytes.resize(bits.size() / 8);
  const std::uint8_t* in = bits.data();
  for (std::uint8_t& byte : bytes) {
    byte = pack_octet(in);
    in += 8;
  }
}

std::uint64_t bits_to_uint(std::span<const std::uint8_t> bits) {
  if (bits.size() > 64) {
    throw std::invalid_argument("bits_to_uint: more than 64 bits");
  }
  std::uint64_t value = 0;
  for (std::uint8_t bit : bits) {
    value = (value << 1) | (bit & 1U);
  }
  return value;
}

Bits uint_to_bits(std::uint64_t value, int count) {
  if (count < 0 || count > 64) {
    throw std::invalid_argument("uint_to_bits: count out of range");
  }
  Bits bits(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    bits[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((value >> (count - 1 - i)) & 1U);
  }
  return bits;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("hamming_distance: length mismatch");
  }
  std::size_t distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i] ^ b[i]) & 1U) ++distance;
  }
  return distance;
}

}  // namespace silence

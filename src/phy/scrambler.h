// 802.11a DATA-field scrambler (generator polynomial x^7 + x^4 + 1).
//
// Scrambling and descrambling are the same XOR operation given the same
// initial state; the receiver recovers the transmitter's state from the
// first 7 (all-zero) SERVICE bits, as in the standard.
#pragma once

#include <cstdint>
#include <span>

#include "common/bits.h"

namespace silence {

class Scrambler {
 public:
  // `seed` is the 7-bit initial shift-register state; must be non-zero.
  explicit Scrambler(std::uint8_t seed);

  // Next output bit of the PN sequence, advancing the register.
  std::uint8_t next();

  // XORs the PN sequence onto `bits` (works for scramble and descramble),
  // stepping the register once per bit. The chains XOR octets against
  // keystream_cached() instead; this is their per-bit reference.
  Bits apply(std::span<const std::uint8_t> bits);

  // 127-bit repeating sequence generated from `seed` (handy for tests and
  // for the pilot polarity sequence).
  static Bits sequence(std::uint8_t seed, std::size_t length);

  // The `seed` PN sequence packed LSB-first into octets: octet k holds
  // sequence bits 8k .. 8k+7, bit 0 first. 127 octets are exactly eight
  // 127-bit periods, so keystream octet k is entry k % kKeystreamPeriod.
  // The span holds kKeystreamPeriod + 7 entries (the first seven
  // repeated), so an 8-octet read at any phase stays inside it. Built
  // lazily once per seed and valid for the process lifetime; throws for
  // seed 0.
  static constexpr std::size_t kKeystreamPeriod = 127;
  static std::span<const std::uint8_t> keystream_cached(std::uint8_t seed);

  // XORs the keystream onto packed `octets`, octet k against keystream
  // octet (first_octet + k) % kKeystreamPeriod, eight octets per 64-bit
  // XOR. Equal to apply() on the unpacked bits starting at sequence bit
  // 8 * first_octet.
  static void xor_keystream(std::uint8_t seed, std::size_t first_octet,
                            std::span<std::uint8_t> octets);

  // Recovers the transmitter seed from the first 7 descrambler-input bits,
  // assuming the plaintext bits were zero (the SERVICE field's scrambler
  //-init bits). Returns the state that generates those 7 bits: after
  // seven steps the register holds exactly the seven bits it emitted, so
  // the seed is one lookup in a 128-entry table. Throws when the bits are
  // all zero (no non-zero state emits them).
  static std::uint8_t recover_seed(std::span<const std::uint8_t> first7);

 private:
  std::uint8_t state_;  // 7-bit register, bit0 = x^1 ... bit6 = x^7
};

}  // namespace silence

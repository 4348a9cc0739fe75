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
  // stepping the register once per bit. The chains use
  // apply_with_seed_into(); this is its reference.
  Bits apply(std::span<const std::uint8_t> bits);

  // 127-bit repeating sequence generated from `seed` (handy for tests and
  // for the pilot polarity sequence).
  static Bits sequence(std::uint8_t seed, std::size_t length);

  // One period (127 bits) of the PN sequence for `seed`, served from a
  // process-wide table built lazily per seed. The span stays valid for
  // the process lifetime.
  static std::span<const std::uint8_t> period_cached(std::uint8_t seed);

  // XORs the `seed` PN sequence onto `bits` without stepping the register
  // bit by bit (the cached period, eight bits per 64-bit XOR). Bit-identical
  // to Scrambler(seed).apply(bits); `out` is resized to match and its
  // capacity is reused across calls. Both chains scramble and descramble
  // through this.
  static void apply_with_seed_into(std::uint8_t seed,
                                   std::span<const std::uint8_t> bits,
                                   Bits& out);

  // Recovers the transmitter seed from the first 7 descrambler-input bits,
  // assuming the plaintext bits were zero (the SERVICE field's scrambler
  //-init bits). Returns the state that generates those 7 bits.
  static std::uint8_t recover_seed(std::span<const std::uint8_t> first7);

 private:
  std::uint8_t state_;  // 7-bit register, bit0 = x^1 ... bit6 = x^7
};

}  // namespace silence

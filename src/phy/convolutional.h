// 802.11a convolutional encoder: constraint length 7, rate 1/2,
// generators g0 = 133 (octal), g1 = 171 (octal).
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "common/bits.h"

namespace silence {

inline constexpr int kConstraintLength = 7;
inline constexpr int kNumStates = 1 << (kConstraintLength - 1);  // 64
inline constexpr std::uint8_t kGeneratorA = 0b1011011;           // 133 octal
inline constexpr std::uint8_t kGeneratorB = 0b1111001;           // 171 octal

// Coded pair for the 7-bit window (input << 6 | state): output A in bit
// 0, output B in bit 1. Window bit 6 is the current input d[n], bit 0 the
// oldest bit d[n-6]; the next state is the window shifted right by one.
constexpr std::uint8_t conv_window_output(unsigned window) {
  return static_cast<std::uint8_t>(
      (std::popcount(window & kGeneratorA) & 1) |
      ((std::popcount(window & kGeneratorB) & 1) << 1));
}

// Encodes `bits` at rate 1/2; output is [A0, B0, A1, B1, ...] and has
// exactly 2 * bits.size() entries. The encoder starts and (given the
// caller appends >= 6 tail zeros) ends in the all-zero state. Only bit 0
// of each input byte counts.
Bits convolutional_encode(std::span<const std::uint8_t> bits);

// Same encoding into a caller buffer (resized). Packs the input eight
// bits to an octet and runs encode_punctured() at rate 1/2; equal to the
// conv_output/conv_next_state loop (bit_reference::encode).
void convolutional_encode_into(std::span<const std::uint8_t> bits, Bits& out);

// Coded output pair for one input bit from a given 6-bit encoder state.
// Bit 0 of the result is output A, bit 1 is output B.
std::uint8_t conv_output(int state, int input_bit);

// Next 6-bit state after shifting `input_bit` in.
int conv_next_state(int state, int input_bit);

}  // namespace silence

// 802.11a convolutional encoder: constraint length 7, rate 1/2,
// generators g0 = 133 (octal), g1 = 171 (octal).
#pragma once

#include <cstdint>
#include <span>

#include "common/bits.h"

namespace silence {

inline constexpr int kConstraintLength = 7;
inline constexpr int kNumStates = 1 << (kConstraintLength - 1);  // 64
inline constexpr std::uint8_t kGeneratorA = 0b1011011;           // 133 octal
inline constexpr std::uint8_t kGeneratorB = 0b1111001;           // 171 octal

// Encodes `bits` at rate 1/2; output is [A0, B0, A1, B1, ...] and has
// exactly 2 * bits.size() entries. The encoder starts and (given the
// caller appends >= 6 tail zeros) ends in the all-zero state.
Bits convolutional_encode(std::span<const std::uint8_t> bits);

// Same encoding into a caller buffer (resized; capacity reused across
// calls, so warm hot-path callers stay allocation-free). One lookup per
// input bit in a 128-entry table indexed by the 7-bit window
// (input << 6 | state); equal to the conv_output/conv_next_state loop.
void convolutional_encode_into(std::span<const std::uint8_t> bits, Bits& out);

// Coded output pair for one input bit from a given 6-bit encoder state.
// Bit 0 of the result is output A, bit 1 is output B.
std::uint8_t conv_output(int state, int input_bit);

// Next 6-bit state after shifting `input_bit` in.
int conv_next_state(int state, int input_bit);

}  // namespace silence

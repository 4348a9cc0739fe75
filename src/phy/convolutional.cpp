#include "phy/convolutional.h"

#include <array>
#include <bit>

namespace silence {
namespace {

// 7-bit window: bit 6 = current input d[n], bit 0 = oldest bit d[n-6].
constexpr std::uint8_t parity7(unsigned window, std::uint8_t generator) {
  return static_cast<std::uint8_t>(std::popcount(window & generator) & 1);
}

constexpr std::uint8_t window_output(unsigned window) {
  return static_cast<std::uint8_t>(parity7(window, kGeneratorA) |
                                   (parity7(window, kGeneratorB) << 1));
}

// Coded pair per 7-bit window (input << 6 | state): A in bit 0, B in
// bit 1. The encoder's next state is the window shifted right by one.
constexpr std::array<std::uint8_t, 2 * kNumStates> kWindowOutput = [] {
  std::array<std::uint8_t, 2 * kNumStates> table{};
  for (unsigned w = 0; w < table.size(); ++w) table[w] = window_output(w);
  return table;
}();

}  // namespace

std::uint8_t conv_output(int state, int input_bit) {
  return window_output(static_cast<unsigned>(((input_bit & 1) << 6) |
                                             (state & (kNumStates - 1))));
}

int conv_next_state(int state, int input_bit) {
  return ((input_bit & 1) << 5) | ((state & (kNumStates - 1)) >> 1);
}

Bits convolutional_encode(std::span<const std::uint8_t> bits) {
  Bits out;
  convolutional_encode_into(bits, out);
  return out;
}

void convolutional_encode_into(std::span<const std::uint8_t> bits,
                               Bits& out) {
  out.resize(bits.size() * 2);
  std::uint8_t* coded = out.data();
  unsigned state = 0;
  for (const std::uint8_t bit : bits) {
    const unsigned window = ((bit & 1U) << 6) | state;
    const std::uint8_t ab = kWindowOutput[window];
    coded[0] = static_cast<std::uint8_t>(ab & 1U);
    coded[1] = static_cast<std::uint8_t>(ab >> 1);
    coded += 2;
    state = window >> 1;
  }
}

}  // namespace silence

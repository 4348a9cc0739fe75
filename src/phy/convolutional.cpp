#include "phy/convolutional.h"

#include "phy/puncture.h"

namespace silence {

std::uint8_t conv_output(int state, int input_bit) {
  return conv_window_output(static_cast<unsigned>(
      ((input_bit & 1) << 6) | (state & (kNumStates - 1))));
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
  const std::size_t whole = bits.size() / 8;
  Bytes packed(whole + 1, 0);
  for (std::size_t k = 0; k < whole; ++k) {
    packed[k] = pack_octet(bits.data() + 8 * k);
  }
  for (std::size_t i = 8 * whole; i < bits.size(); ++i) {
    packed[whole] = static_cast<std::uint8_t>(
        packed[whole] | ((bits[i] & 1U) << (i - 8 * whole)));
  }
  out.resize(2 * bits.size());
  encode_punctured(packed, bits.size(), CodeRate::kRate1of2, out);
}

}  // namespace silence

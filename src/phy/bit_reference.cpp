#include "phy/bit_reference.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/scrambler.h"
#include "phy/transmitter.h"

namespace silence::bit_reference {

namespace {
constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;
}  // namespace

Bits data_bits(std::span<const std::uint8_t> psdu, const Mcs& mcs,
               std::uint8_t scrambler_seed) {
  const auto total =
      static_cast<std::size_t>(symbols_for_psdu(psdu.size(), mcs)) *
      static_cast<std::size_t>(mcs.n_dbps);
  Bits plain(total, 0);
  for (std::size_t i = 0; i < 8 * psdu.size(); ++i) {
    plain[kServiceBits + i] =
        static_cast<std::uint8_t>((psdu[i / 8] >> (i % 8)) & 1U);
  }
  Bits scrambled = Scrambler(scrambler_seed).apply(plain);
  const std::size_t tail_at = kServiceBits + 8 * psdu.size();
  for (std::size_t i = 0; i < kTailBits; ++i) scrambled[tail_at + i] = 0;
  return scrambled;
}

Bits encode(std::span<const std::uint8_t> bits) {
  Bits out;
  out.reserve(2 * bits.size());
  int state = 0;
  for (const std::uint8_t bit : bits) {
    const std::uint8_t ab = conv_output(state, bit);
    out.push_back(static_cast<std::uint8_t>(ab & 1U));
    out.push_back(static_cast<std::uint8_t>((ab >> 1) & 1U));
    state = conv_next_state(state, bit);
  }
  return out;
}

void build_frame_bits(std::span<const std::uint8_t> psdu, const Mcs& mcs,
                      std::uint8_t scrambler_seed, Bits& coded,
                      SymbolGrid& grid) {
  coded = puncture(encode(data_bits(psdu, mcs, scrambler_seed)),
                   mcs.code_rate);
  const Bits interleaved = interleave(coded, mcs);
  const auto n_bpsc = static_cast<std::size_t>(mcs.n_bpsc);
  grid = SymbolGrid(kNumDataSubcarriers);
  grid.resize(interleaved.size() / static_cast<std::size_t>(mcs.n_cbps));
  const std::span<Cx> cells = grid.cells();
  for (std::size_t j = 0; j < cells.size(); ++j) {
    cells[j] = map_symbol(std::span(interleaved).subspan(j * n_bpsc, n_bpsc),
                          mcs.modulation);
  }
}

void decoder_input(std::span<const double> llrs, const Mcs& mcs,
                   std::vector<double>& deinterleaved, Llrs& mother) {
  deinterleave_llrs_into(llrs, mcs, deinterleaved);
  const std::size_t mother_bits = llrs.size() /
                                  static_cast<std::size_t>(mcs.n_cbps) * 2 *
                                  static_cast<std::size_t>(mcs.n_dbps);
  depuncture_llrs_into(deinterleaved, mcs.code_rate, mother_bits, mother);
}

std::uint64_t corrected_bits(std::span<const std::uint8_t> decoded,
                             CodeRate rate,
                             std::span<const double> decoder_input) {
  const Bits recoded = puncture(encode(decoded), rate);
  const std::size_t n = std::min(recoded.size(), decoder_input.size());
  std::uint64_t corrected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double llr = decoder_input[i];
    if (llr != 0.0 && (llr < 0.0 ? 1 : 0) != recoded[i]) ++corrected;
  }
  return corrected;
}

Bytes descramble_psdu(std::span<const std::uint8_t> decoded,
                      std::uint8_t scrambler_seed, std::size_t length_octets) {
  const Bits info = Scrambler(scrambler_seed).apply(decoded);
  return pack_bits(std::span(info).subspan(kServiceBits, 8 * length_octets));
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFU;
  for (const std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

Bytes pack_bits(std::span<const std::uint8_t> bits) {
  if (bits.size() % 8 != 0) {
    throw std::invalid_argument("pack_bits: bit count not a multiple of 8");
  }
  Bytes bytes(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bytes[i / 8] = static_cast<std::uint8_t>(bytes[i / 8] |
                                             ((bits[i] & 1U) << (i % 8)));
  }
  return bytes;
}

}  // namespace silence::bit_reference

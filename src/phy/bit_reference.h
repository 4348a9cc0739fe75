// The PHY bit path's per-bit loops, kept once: the oracle tests
// (tests/phy/coding_kernels_test.cpp) hold every word-wide or table
// kernel to them bit for bit, and perf_phy's ratio gates time the fast
// chains against them on the same frame. Nothing in the simulator runs
// them.
//
// Each is the straightforward loop the chains ran before: one bit, one
// LLR or one octet per step, a byte per bit between stages, and no
// tables beyond the definitional ones (conv_output, the interleaver
// permutation, the constellation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "phy/params.h"
#include "phy/puncture.h"
#include "phy/symbol_grid.h"

namespace silence::bit_reference {

// --- Transmitter -----------------------------------------------------------

// The DATA field of `psdu` at `mcs`: SERVICE (16 zero bits), the PSDU
// unpacked LSB-first, tail and pad, scrambled by the Scrambler register one
// bit at a time, then the six tail bits re-zeroed.
Bits data_bits(std::span<const std::uint8_t> psdu, const Mcs& mcs,
               std::uint8_t scrambler_seed);

// Rate-1/2 encoding, one conv_output/conv_next_state step per bit; only
// bit 0 of each input byte counts.
Bits encode(std::span<const std::uint8_t> bits);

// build_frame's bit stages: data_bits(), encode(), puncture(),
// interleave() and map_symbol() per point. `coded` gets the punctured
// stream (TxFrame::coded_bits), `grid` the symbol rows
// (TxFrame::data_grid).
void build_frame_bits(std::span<const std::uint8_t> psdu, const Mcs& mcs,
                      std::uint8_t scrambler_seed, Bits& coded,
                      SymbolGrid& grid);

// --- Receiver --------------------------------------------------------------

// decode_data_symbols' decoder input: the demapped stream deinterleaved
// (deinterleave_llrs_into) into `deinterleaved`, then depunctured with a
// pattern test per mother bit (depuncture_llrs_into) into `mother`.
void decoder_input(std::span<const double> llrs, const Mcs& mcs,
                   std::vector<double>& deinterleaved, Llrs& mother);

// The OBS corrected-bit count: `decoded` re-encoded by encode() and
// punctured at `rate`, compared one bit at a time with the hard
// decisions (llr < 0) of the punctured-stream decoder input, counting
// mismatches at nonzero positions over the shorter of the two.
std::uint64_t corrected_bits(std::span<const std::uint8_t> decoded,
                             CodeRate rate,
                             std::span<const double> decoder_input);

// The PSDU in the decoder output: every bit descrambled by the register
// (Scrambler::apply), then octets [2, 2 + length_octets) packed one bit
// at a time. `decoded` must hold at least 16 + 8 * length_octets bits.
Bytes descramble_psdu(std::span<const std::uint8_t> decoded,
                      std::uint8_t scrambler_seed, std::size_t length_octets);

// CRC-32 one table step per octet (the crc32() definition).
std::uint32_t crc32(std::span<const std::uint8_t> data);

// Packs bits into octets one bit at a time (LSB first); the bit count
// must be a multiple of 8.
Bytes pack_bits(std::span<const std::uint8_t> bits);

}  // namespace silence::bit_reference

// 802.11a block interleaver (17.3.5.7): operates on one OFDM symbol of
// N_CBPS coded bits via the standard two-permutation rule.
//
// The interleaver is what makes erasure Viterbi decoding effective: the
// N_BPSC zero-LLR bits of one silence symbol land in *adjacent* positions
// of the modulated symbol stream but are spread across the codeword after
// deinterleaving, so the convolutional code sees isolated erasures rather
// than a burst.
#pragma once

#include <span>
#include <vector>

#include "common/bits.h"
#include "dsp/fft.h"
#include "phy/params.h"

namespace silence {

// Output position of input bit k (k = 0 .. n_cbps-1) under the standard
// two-permutation rule. n_cbps must be a positive multiple of 16.
constexpr int interleaver_position(int k, int n_cbps, int n_bpsc) {
  const int s = n_bpsc / 2 > 1 ? n_bpsc / 2 : 1;
  // First permutation: adjacent coded bits -> nonadjacent subcarriers.
  const int i = (n_cbps / 16) * (k % 16) + k / 16;
  // Second permutation: alternate mapping onto less/more significant
  // constellation bits.
  return s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
}

// Interleaving permutation for one OFDM symbol: result[k] is the output
// position of input bit k (k = 0 .. n_cbps-1).
std::vector<int> interleaver_permutation(int n_cbps, int n_bpsc);

// The same permutation served from a process-wide cache. Only the four
// standard 802.11a shapes (48/1, 96/2, 192/4, 288/6) are cached; anything
// else throws. The span stays valid for the process lifetime.
std::span<const int> interleaver_permutation_cached(int n_cbps, int n_bpsc);

// Interleaves one OFDM symbol worth of bits. `bits.size()` must equal
// n_cbps of `mcs`.
Bits interleave_symbol(std::span<const std::uint8_t> bits, const Mcs& mcs);

// The transmitter's interleaver and mapper in one pass. Cell j of a
// symbol is the constellation point of the n_bpsc coded bits the
// interleaver sends to positions j * n_bpsc .. (j + 1) * n_bpsc - 1
// (MSB first), gathered through the inverse permutation: one 16-bit
// table per MCS shape, so no interleaved stream is built. `coded` holds
// whole symbols of n_cbps bits, cells.size() must be
// coded.size() / n_bpsc, and only bit 0 of each coded byte counts. Equal
// to map_bits_into(interleave(coded, mcs), mcs.modulation, cells).
void interleave_map_into(std::span<const std::uint8_t> coded, const Mcs& mcs,
                         std::span<Cx> cells);

// Deinterleaves one OFDM symbol worth of soft values.
std::vector<double> deinterleave_symbol_llrs(std::span<const double> llrs,
                                             const Mcs& mcs);

// Whole-stream helpers: input length must be a multiple of n_cbps; each
// n_cbps block is (de)interleaved independently. interleave() scatters
// one bit at a time: the reference of interleave_map_into().
Bits interleave(std::span<const std::uint8_t> bits, const Mcs& mcs);
std::vector<double> deinterleave_llrs(std::span<const double> llrs,
                                      const Mcs& mcs);

// Allocation-free variants writing into a caller buffer (resized to the
// input length; capacity is reused across calls).
void deinterleave_symbol_llrs_into(std::span<const double> llrs,
                                   const Mcs& mcs, std::vector<double>& out);
void deinterleave_llrs_into(std::span<const double> llrs, const Mcs& mcs,
                            std::vector<double>& out);

}  // namespace silence

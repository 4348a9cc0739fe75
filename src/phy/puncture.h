// 802.11a puncturing of the rate-1/2 mother code to rates 2/3 and 3/4.
//
// Soft values removed by the puncturer are re-inserted as zero-LLR
// erasures before Viterbi decoding (depuncture_llrs) — the same mechanism
// erasure Viterbi decoding (EVD) uses for silence symbols.
#pragma once

#include <span>
#include <vector>

#include "common/bits.h"
#include "phy/params.h"

namespace silence {

using Llrs = std::vector<double>;

// Removes coded bits according to the standard pattern for `rate`, one
// pattern test per mother bit. Rate 1/2 passes through. Input length must
// be a multiple of the pattern period (callers pad via OFDM symbol
// granularity, which always satisfies this). The chains puncture inside
// encode_punctured(); this loop is its reference.
Bits puncture(std::span<const std::uint8_t> coded, CodeRate rate);

// Same puncturing into a caller buffer (capacity reused across calls).
void puncture_into(std::span<const std::uint8_t> coded, CodeRate rate,
                   Bits& out);

// Re-inserts zero LLRs at punctured positions, restoring the mother-code
// stream of exactly `mother_bits` soft values (2*N for N information
// bits). Throws if `llrs` does not hold exactly the surviving positions.
// One pattern test (`pos % period`) per mother bit: the reference of
// deinterleave_depuncture_into().
Llrs depuncture_llrs(std::span<const double> llrs, CodeRate rate,
                     std::size_t mother_bits);

// Same re-insertion into a caller buffer (resized to `mother_bits`;
// capacity is reused across calls).
void depuncture_llrs_into(std::span<const double> llrs, CodeRate rate,
                          std::size_t mother_bits, Llrs& out);

// The transmitter's encoder and puncturer in one pass. `info_bits`
// information bits, packed LSB-first in `packed` (stream bit i is bit
// i % 8 of octet i / 8; at least (info_bits + 7) / 8 octets), are
// encoded from state 0 and punctured at `rate` into `coded`, one byte
// (0 or 1) per coded bit; coded.size() must be
// punctured_length(2 * info_bits, rate). Each table step encodes several
// information bits covering whole puncturing periods (eight at rates 1/2
// and 2/3, six at 3/4) as one XOR of a per-state and a per-input entry,
// which the code's linearity allows. Equal to
// puncture(convolutional_encode(bits), rate) on the unpacked stream.
void encode_punctured(std::span<const std::uint8_t> packed,
                      std::size_t info_bits, CodeRate rate,
                      std::span<std::uint8_t> coded);

// The receiver's decoder input in one gather pass: the demapped stream
// `llrs` (whole OFDM symbols of mcs.n_cbps values) deinterleaved through
// the cached permutation, with the punctured positions re-inserted as
// zero LLRs by whole pattern periods (puncturing periods never straddle a
// symbol). `mother` is resized to 2 * n_dbps values per symbol. Equal to
// deinterleave_llrs_into() followed by depuncture_llrs_into().
void deinterleave_depuncture_into(std::span<const double> llrs,
                                  const Mcs& mcs, Llrs& mother);

// Number of punctured-stream bits produced from `mother_bits` coded bits.
std::size_t punctured_length(std::size_t mother_bits, CodeRate rate);

}  // namespace silence

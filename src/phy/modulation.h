// 802.11a constellation mapping (Gray-coded BPSK/QPSK/16QAM/64QAM with the
// standard normalization factors) and max-log LLR demodulation.
//
// Both directions are table kernels that equal their per-point
// definitions bit for bit: map_bits_into() indexes constellation(mod)
// (built by map_symbol itself) with each point's bits read MSB-first, and
// demod_row_llrs() computes each PAM level's squared distance once per
// axis, runs a point's I and Q axes as the two lanes of one SSE2 vector
// and takes the per-bit minima with the same `<` comparison, so NaN,
// +-inf and overflowing inputs give the brute-force search's LLRs.
//
// LLR sign convention: positive LLR means "bit 0 more likely"
// (lambda = log P(b=0|y) - log P(b=1|y)), matching the paper's Eq. (8).
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "common/bits.h"
#include "dsp/fft.h"
#include "phy/params.h"

namespace silence {

// Maps n_bpsc bits to one constellation point (unit average energy).
Cx map_symbol(std::span<const std::uint8_t> bits, Modulation mod);

// Maps a bit stream (length a multiple of n_bpsc) to symbols.
CxVec map_bits(std::span<const std::uint8_t> bits, Modulation mod);

// Same mapping into a caller buffer; `out.size()` must equal
// bits.size() / n_bpsc. One table load per point.
void map_bits_into(std::span<const std::uint8_t> bits, Modulation mod,
                   std::span<Cx> out);

// Max-log LLRs for the n_bpsc bits of a received point `y` whose noise
// variance (per complex dimension pair, E[|n|^2]) is `noise_var`.
// Appends n_bpsc values to `out`: bit b's LLR is (min |y-x|^2 over points
// x with bit b = 1, minus the min over bit b = 0) on the unscaled grid,
// times demod_llr_weight(mod, noise_var).
void demod_llrs(Cx y, Modulation mod, double noise_var,
                std::vector<double>& out);

// The factor demod_llrs scales distance differences by:
// K_mod^2 / max(noise_var, 1e-12).
double demod_llr_weight(Modulation mod, double noise_var);

// Row demapper: the max-log LLRs of `points`, n_bpsc per point in point
// order, into `out` (size points.size() * n_bpsc). Point i is weighted by
// weights[i] (a demod_llr_weight value, so per-subcarrier noise divisions
// happen once per packet, not per point). When `erased` is non-null,
// points with erased[i] != 0 are EVD erasures and get n_bpsc zero LLRs.
// Every other value equals demod_llrs() on that point alone, bit for bit.
// Returns the number of erased points.
std::size_t demod_row_llrs(std::span<const Cx> points, Modulation mod,
                           std::span<const double> weights,
                           const std::uint8_t* erased, std::span<double> out);

// Nearest constellation point (hard decision).
Cx hard_decision(Cx y, Modulation mod);

// Bits of the nearest constellation point.
Bits hard_decision_bits(Cx y, Modulation mod);

// All M constellation points of a modulation.
std::span<const Cx> constellation(Modulation mod);

// Minimum distance D_m between two constellation points (normalized
// constellation). CoS selects control subcarriers where EVM > D_m / 2.
double min_constellation_distance(Modulation mod);

// Per-modulation scaling factor K_mod (1, 1/sqrt2, 1/sqrt10, 1/sqrt42).
double modulation_scale(Modulation mod);

// Smallest |x|^2 over the constellation (the inner points): 1 for
// BPSK/QPSK, 0.2 for 16QAM, 2/42 for 64QAM. Energy detection of silence
// symbols must discriminate against *this* energy, not the average.
double min_symbol_energy(Modulation mod);

}  // namespace silence

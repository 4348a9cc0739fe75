// 802.11a receive chain, split into a front end (channel/noise estimation,
// SIGNAL decode, per-symbol FFT) and a data decoder, so that the CoS
// energy detector can inspect raw frequency bins and mark silence symbols
// between the two stages.
//
// Each stage has a workspace-taking overload; with a warm PhyWorkspace the
// steady-state per-symbol processing performs no heap allocation (the
// result grids are reserved exactly once per packet).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "common/bits.h"
#include "dsp/fft.h"
#include "phy/params.h"
#include "phy/signal_field.h"
#include "phy/symbol_grid.h"
#include "phy/workspace.h"

namespace silence {

// silence_mask[symbol][subcarrier] != 0 marks a detected silence symbol
// whose constellation bits must be treated as erasures (EVD).
using SilenceMask = std::vector<std::vector<std::uint8_t>>;

struct FrontEndResult {
  bool preamble_ok = false;
  std::optional<SignalField> signal;
  std::array<Cx, kFftSize> channel{};  // LTF-based estimate
  double noise_var = 0.0;  // per-bin frequency-domain noise, pilot-aided
  double cfo_hz = 0.0;     // preamble-estimated and corrected CFO
  // Raw 64-bin FFT output per data symbol (row = symbol).
  SymbolGrid data_bins{kFftSize};
  // Whole OFDM symbols following the data field (e.g. CoS feedback
  // symbols appended to an ACK). Not part of the PSDU decode.
  SymbolGrid trailer_bins{kFftSize};
};

// Runs preamble processing and SIGNAL decoding over a frame-aligned burst.
// When SIGNAL parses, all data-symbol FFTs and the pilot-aided noise
// estimate are populated.
FrontEndResult receiver_front_end(std::span<const Cx> samples);
FrontEndResult receiver_front_end(std::span<const Cx> samples,
                                  PhyWorkspace& ws);

struct DecodeResult {
  bool crc_ok = false;
  Bytes psdu;
  // Equalized data constellation points per symbol (48 each), for EVM
  // computation and symbol-error analysis.
  SymbolGrid eq_data{kNumDataSubcarriers};
  // Hard decisions of the coded stream in pre-interleave (deinterleaved)
  // order, one per transmitted coded bit; silence-masked symbols still
  // contribute their (meaningless) hard bits here, callers that measure
  // decoder-input BER should skip masked positions.
  Bits decoder_input_hard;
  // Descrambled information bits (SERVICE + PSDU + tail + pad).
  Bits info_bits;
  // Scrambler seed recovered from the SERVICE field (0 when decoding
  // failed before that point). Needed to reconstruct the transmitted
  // constellation points for EVM computation.
  std::uint8_t scrambler_seed = 0;
};

// Demodulates, deinterleaves, depunctures, Viterbi-decodes, descrambles
// and CRC-checks the data symbols. `silence` may be null (plain 802.11a).
DecodeResult decode_data_symbols(const FrontEndResult& fe, const Mcs& mcs,
                                 int length_octets,
                                 const SilenceMask* silence = nullptr);
DecodeResult decode_data_symbols(const FrontEndResult& fe, const Mcs& mcs,
                                 int length_octets, const SilenceMask* silence,
                                 PhyWorkspace& ws);

// Convenience: full receive of a plain (non-CoS) burst.
struct RxPacket {
  bool ok = false;  // preamble + SIGNAL + CRC all good
  std::optional<SignalField> signal;
  Bytes psdu;
};
RxPacket receive_packet(std::span<const Cx> samples);
RxPacket receive_packet(std::span<const Cx> samples, PhyWorkspace& ws);

// Like receive_packet(), but the frame may start anywhere in `samples`
// (preceded by noise/idle): runs STF/LTF timing acquisition first.
RxPacket receive_packet_unaligned(std::span<const Cx> samples);

// Max-log demap of a packet's equalized data grid (48 points per row)
// into `llrs`, resized to rows * n_cbps: one demod_row_llrs() pass per
// row, with each subcarrier's weight computed once per packet from
// max(|H|^2, 1e-9) and `noise_var`. Rows of `silence` (may be null) mark
// EVD erasures. Returns the number of erased bits.
std::size_t demap_data_symbols(const SymbolGrid& eq_data,
                               const std::array<Cx, kFftSize>& channel,
                               double noise_var, const Mcs& mcs,
                               const SilenceMask* silence,
                               std::vector<double>& llrs);

// Hard decisions of an LLR stream (1 where the LLR is negative) into
// `out`, resized to match.
void hard_decisions_into(std::span<const double> llrs, Bits& out);

// Corrected-bit diagnostic (paper §"erasure Viterbi decoding"): the
// decoder output `decoded` re-encoded at `rate` (into ws.recode_mother and
// ws.recoded) and compared with the hard decisions of the decoder input it
// was fed. Returns the mismatches at non-erased (nonzero) positions: the
// channel errors plus silence erasures the code absorbed.
std::uint64_t count_corrected_bits(std::span<const std::uint8_t> decoded,
                                   CodeRate rate,
                                   std::span<const double> decoder_input,
                                   PhyWorkspace& ws);

// Equalizes one raw 64-bin symbol to the 48 logical data points.
// Bins with a near-zero channel estimate equalize to 0.
CxVec equalize_data_points(std::span<const Cx> bins64,
                           const std::array<Cx, kFftSize>& channel);
void equalize_data_points_into(std::span<const Cx> bins64,
                               const std::array<Cx, kFftSize>& channel,
                               std::span<Cx> points48);

}  // namespace silence

// 802.11a transmit chain: PSDU -> scramble -> convolutional encode ->
// puncture -> interleave -> constellation map -> OFDM grid -> samples.
//
// The chain is split in two so that CoS can inject silence symbols: first
// build_frame() produces the per-symbol constellation grid, then a CoS
// power controller may zero selected grid points, and finally
// frame_to_samples() assembles preamble + SIGNAL + data samples.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "dsp/fft.h"
#include "phy/params.h"
#include "phy/symbol_grid.h"

namespace silence {

struct TxFrame {
  McsId mcs;  // invalid when default-constructed
  std::uint8_t scrambler_seed = 0;
  std::size_t psdu_octets = 0;
  // Scrambled DATA bits (SERVICE + PSDU + tail + pad), tail re-zeroed.
  Bits data_bits;
  // Punctured coded stream in pre-interleave order, n_symbols * n_cbps.
  Bits coded_bits;
  // Per-OFDM-symbol constellation points (48 each, logical subcarrier
  // order). CoS silence insertion zeroes entries here.
  SymbolGrid data_grid{kNumDataSubcarriers};

  int num_symbols() const { return static_cast<int>(data_grid.size()); }

  // Airtime of the full burst (preamble + SIGNAL + data) in seconds.
  double airtime_sec() const;
};

// Builds the frame for a PSDU (the PSDU should already carry its FCS; see
// common/crc32.h helpers). Throws when the PSDU exceeds 4095 octets.
TxFrame build_frame(std::span<const std::uint8_t> psdu, const Mcs& mcs,
                    std::uint8_t scrambler_seed = 0x5D);

// Full burst: 320 preamble samples, 80 SIGNAL samples, 80 per data symbol.
CxVec frame_to_samples(const TxFrame& frame);

// Number of OFDM data symbols needed for `psdu_octets` at `mcs`.
int symbols_for_psdu(std::size_t psdu_octets, const Mcs& mcs);

}  // namespace silence

#include "phy/transmitter.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/obs.h"
#include "phy/interleaver.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/puncture.h"
#include "phy/scrambler.h"
#include "phy/signal_field.h"

namespace silence {

namespace {
constexpr int kServiceBits = 16;
constexpr int kTailBits = 6;
constexpr std::size_t kServiceOctets = kServiceBits / 8;
constexpr std::size_t kMaxPsduOctets = 4095;
// Largest DATA field in octets: the largest PSDU plus SERVICE, tail and
// at most one symbol of pad (n_dbps <= 216 bits).
constexpr std::size_t kMaxDataOctets =
    (kServiceBits + 8 * kMaxPsduOctets + kTailBits + 215 + 7) / 8;
}  // namespace

double TxFrame::airtime_sec() const {
  return kPreambleDurationSec + kSignalDurationSec +
         num_symbols() * kSymbolDurationSec;
}

int symbols_for_psdu(std::size_t psdu_octets, const Mcs& mcs) {
  const std::size_t payload_bits = kServiceBits + 8 * psdu_octets + kTailBits;
  return static_cast<int>(
      (payload_bits + static_cast<std::size_t>(mcs.n_dbps) - 1) /
      static_cast<std::size_t>(mcs.n_dbps));
}

TxFrame build_frame(std::span<const std::uint8_t> psdu, const Mcs& mcs,
                    std::uint8_t scrambler_seed) {
  if (psdu.empty() || psdu.size() > kMaxPsduOctets) {
    throw std::invalid_argument("build_frame: PSDU must be 1..4095 octets");
  }
  OBS_SPAN("phy.tx.frame");
  OBS_COUNT("phy.tx.frames");

  TxFrame frame;
  frame.mcs = McsId::of(mcs);
  frame.scrambler_seed = scrambler_seed;
  frame.psdu_octets = psdu.size();

  const int n_sym = symbols_for_psdu(psdu.size(), mcs);
  const auto total_bits =
      static_cast<std::size_t>(n_sym) * static_cast<std::size_t>(mcs.n_dbps);
  const std::size_t coded_bits =
      static_cast<std::size_t>(n_sym) * static_cast<std::size_t>(mcs.n_cbps);

  // The DATA field packed LSB-first (as the PSDU's octets already are):
  // SERVICE (16 zero bits: 7 scrambler-init + 9 reserved), the PSDU, then
  // zeros for tail and pad. Everything is scrambled, then the six tail
  // bits (bits 0..5 of the octet after the PSDU) are re-zeroed so the
  // encoder terminates in state 0 (802.11a 17.3.5.2).
  std::array<std::uint8_t, kMaxDataOctets> data;
  const std::size_t data_octets = (total_bits + 7) / 8;
  {
    OBS_SPAN("phy.tx.scramble");
    std::fill_n(data.begin(), kServiceOctets, std::uint8_t{0});
    std::copy(psdu.begin(), psdu.end(), data.begin() + kServiceOctets);
    std::fill(data.begin() + kServiceOctets + psdu.size(),
              data.begin() + data_octets, std::uint8_t{0});
    Scrambler::xor_keystream(scrambler_seed, 0,
                             std::span(data).first(data_octets));
    data[kServiceOctets + psdu.size()] &= 0xC0U;
    OBS_COUNT_N("phy.tx.scramble.items", total_bits);
  }
  {
    OBS_SPAN("phy.tx.encode");
    frame.coded_bits.resize(coded_bits);
    encode_punctured(std::span(data).first(data_octets), total_bits,
                     mcs.code_rate, frame.coded_bits);
    OBS_COUNT_N("phy.tx.encode.items", total_bits);
  }
  {
    // Interleaving and mapping are one gather pass, timed as the map.
    OBS_SPAN("phy.tx.map");
    frame.data_grid.resize(static_cast<std::size_t>(n_sym));
    interleave_map_into(frame.coded_bits, mcs, frame.data_grid.cells());
    OBS_COUNT_N("phy.tx.interleave.items", coded_bits);
    OBS_COUNT_N("phy.tx.map.items", frame.data_grid.cells().size());
  }
  OBS_COUNT_N("phy.tx.symbols", n_sym);
  return frame;
}

CxVec frame_to_samples(const TxFrame& frame) {
  if (!frame.mcs.valid()) {
    throw std::invalid_argument("frame_to_samples: empty frame");
  }
  // The preamble is a pure function of nothing; build it once.
  static const CxVec& preamble = *new CxVec(build_preamble());

  const std::size_t total =
      static_cast<std::size_t>(kPreambleSamples) +
      static_cast<std::size_t>(kSymbolSamples) * (1 + frame.data_grid.size());
  CxVec samples(total);
  const std::span<Cx> out(samples);
  std::copy(preamble.begin(), preamble.end(), out.begin());

  // SIGNAL symbol (BPSK, rate 1/2, not scrambled), pilot index 0. Its
  // temporaries are scoped so they are freed before the data symbols.
  std::array<Cx, kFftSize> bins;
  {
    const Bits signal_bits =
        encode_signal_bits(*frame.mcs, static_cast<int>(frame.psdu_octets));
    std::array<std::uint8_t, 3> signal_octets;
    for (std::size_t k = 0; k < signal_octets.size(); ++k) {
      signal_octets[k] = pack_octet(signal_bits.data() + 8 * k);
    }
    // 24 bits at rate 1/2: one BPSK bit per data subcarrier.
    std::array<std::uint8_t, kNumDataSubcarriers> signal_coded;
    encode_punctured(signal_octets, signal_bits.size(), CodeRate::kRate1of2,
                     signal_coded);
    std::array<Cx, kNumDataSubcarriers> signal_points;
    interleave_map_into(signal_coded, mcs_for_rate(6), signal_points);
    assemble_frequency_bins_into(signal_points, 0, bins);
    bins_to_time_into(bins, out.subspan(kPreambleSamples, kSymbolSamples));
  }

  // Data symbols: pilot indices 1..n, written straight into the output
  // burst (the IFFT runs in place on the destination span).
  {
    OBS_SPAN("phy.tx.ifft");
    for (int s = 0; s < frame.num_symbols(); ++s) {
      assemble_frequency_bins_into(
          frame.data_grid[static_cast<std::size_t>(s)], s + 1, bins);
      const auto offset = static_cast<std::size_t>(kPreambleSamples) +
                          static_cast<std::size_t>(kSymbolSamples) *
                              static_cast<std::size_t>(1 + s);
      bins_to_time_into(bins, out.subspan(offset, kSymbolSamples));
    }
  }
  OBS_COUNT_N("phy.tx.ifft.items",
              static_cast<std::size_t>(frame.num_symbols()) *
                  static_cast<std::size_t>(kSymbolSamples));
  OBS_COUNT_N("phy.tx.samples", samples.size());
  return samples;
}

}  // namespace silence

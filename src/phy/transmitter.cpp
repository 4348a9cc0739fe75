#include "phy/transmitter.h"

#include <array>
#include <stdexcept>

#include "obs/obs.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/puncture.h"
#include "phy/scrambler.h"
#include "phy/signal_field.h"

namespace silence {

namespace {
constexpr int kServiceBits = 16;
constexpr int kTailBits = 6;
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
  if (psdu.empty() || psdu.size() > 4095) {
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

  // SERVICE (16 zero bits: 7 scrambler-init + 9 reserved) + PSDU + tail +
  // pad, then scramble everything and re-zero the tail so the encoder
  // terminates in state 0 (802.11a 17.3.5.2). The PSDU is unpacked in
  // place, LSB of each octet first (as bytes_to_bits).
  Bits plain(total_bits, 0);
  std::uint8_t* psdu_bits = plain.data() + kServiceBits;
  for (const std::uint8_t octet : psdu) {
    for (int i = 0; i < 8; ++i) {
      *psdu_bits++ = static_cast<std::uint8_t>((octet >> i) & 1U);
    }
  }

  {
    OBS_SPAN("phy.tx.scramble");
    Scrambler::apply_with_seed_into(scrambler_seed, plain, frame.data_bits);
    OBS_COUNT_N("phy.tx.scramble.items", frame.data_bits.size());
  }
  const std::size_t tail_at = kServiceBits + 8 * psdu.size();
  for (int i = 0; i < kTailBits; ++i) frame.data_bits[tail_at + static_cast<std::size_t>(i)] = 0;

  {
    OBS_SPAN("phy.tx.encode");
    const Bits mother = convolutional_encode(frame.data_bits);
    puncture_into(mother, mcs.code_rate, frame.coded_bits);
    OBS_COUNT_N("phy.tx.encode.items", frame.data_bits.size());
  }

  Bits interleaved;
  {
    OBS_SPAN("phy.tx.interleave");
    interleaved = interleave(frame.coded_bits, mcs);
    OBS_COUNT_N("phy.tx.interleave.items", interleaved.size());
  }
  {
    OBS_SPAN("phy.tx.map");
    // Map straight into the flat grid storage: one allocation for the
    // whole frame, no per-symbol rows.
    frame.data_grid.resize(static_cast<std::size_t>(n_sym));
    map_bits_into(interleaved, mcs.modulation, frame.data_grid.cells());
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
    const Mcs& bpsk = mcs_for_rate(6);
    const Bits signal_bits =
        encode_signal_bits(*frame.mcs, static_cast<int>(frame.psdu_octets));
    const Bits signal_coded = convolutional_encode(signal_bits);
    const Bits signal_inter = interleave(signal_coded, bpsk);
    std::array<Cx, kNumDataSubcarriers> signal_points;
    map_bits_into(signal_inter, Modulation::kBpsk, signal_points);
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

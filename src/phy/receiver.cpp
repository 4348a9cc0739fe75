#include "phy/receiver.h"

#include <cmath>
#include <stdexcept>

#include "common/crc32.h"
#include "obs/flight/flight.h"
#include "obs/health/health.h"
#include "obs/obs.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/pilots.h"
#include "phy/preamble.h"
#include "phy/puncture.h"
#include "phy/scrambler.h"
#include "phy/sync.h"
#include "phy/transmitter.h"
#include "phy/viterbi.h"

namespace silence {
namespace {

constexpr int kServiceBits = 16;
constexpr double kMinChannelPower = 1e-9;

const ViterbiDecoder& shared_decoder() {
  static const ViterbiDecoder decoder;
  return decoder;
}

// Per-subcarrier demapper weights of one packet: the channel power is
// floored at kMinChannelPower, then weighted as demod_llrs weights a point
// of noise variance noise_var / |H|^2.
std::array<double, kNumDataSubcarriers> data_llr_weights(
    const std::array<Cx, kFftSize>& channel, double noise_var,
    Modulation mod) {
  std::array<double, kNumDataSubcarriers> weights;
  const auto data_bins = data_subcarrier_bins();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const Cx h = channel[static_cast<std::size_t>(data_bins[i])];
    const double h2 = std::max(std::norm(h), kMinChannelPower);
    weights[i] = demod_llr_weight(mod, noise_var / h2);
  }
  return weights;
}

// Decodes the SIGNAL symbol from its raw (unequalized) 64-bin FFT output
// using the LTF channel estimate.
std::optional<SignalField> decode_signal_symbol(
    std::span<const Cx> signal_bins, const std::array<Cx, kFftSize>& channel,
    double noise_var, PhyWorkspace& ws) {
  std::array<Cx, kNumDataSubcarriers> points;
  equalize_data_points_into(signal_bins, channel, points);

  const Mcs& bpsk = mcs_for_rate(6);
  ws.llrs.resize(kNumDataSubcarriers);
  demod_row_llrs(points, Modulation::kBpsk,
                 data_llr_weights(channel, noise_var, Modulation::kBpsk),
                 nullptr, ws.llrs);
  deinterleave_symbol_llrs_into(ws.llrs, bpsk, ws.deint);
  shared_decoder().decode(ws.deint, /*terminated=*/true, ws.viterbi,
                          ws.scrambled);
  return parse_signal_bits(std::span(ws.scrambled).first(24));
}

}  // namespace

void equalize_data_points_into(std::span<const Cx> bins64,
                               const std::array<Cx, kFftSize>& channel,
                               std::span<Cx> points48) {
  extract_data_points_into(bins64, points48);
  const auto data_bins = data_subcarrier_bins();
  for (int i = 0; i < kNumDataSubcarriers; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Cx h = channel[static_cast<std::size_t>(data_bins[idx])];
    if (std::norm(h) < kMinChannelPower) {
      points48[idx] = Cx{0.0, 0.0};
    } else {
      points48[idx] /= h;
    }
  }
}

std::size_t demap_data_symbols(const SymbolGrid& eq_data,
                               const std::array<Cx, kFftSize>& channel,
                               double noise_var, const Mcs& mcs,
                               const SilenceMask* silence,
                               std::vector<double>& llrs) {
  const auto weights = data_llr_weights(channel, noise_var, mcs.modulation);
  const auto n_cbps = static_cast<std::size_t>(mcs.n_cbps);
  llrs.resize(eq_data.size() * n_cbps);
  std::size_t erased_points = 0;
  for (std::size_t s = 0; s < eq_data.size(); ++s) {
    erased_points += demod_row_llrs(
        eq_data[s], mcs.modulation, weights,
        silence != nullptr ? (*silence)[s].data() : nullptr,
        std::span(llrs).subspan(s * n_cbps, n_cbps));
  }
  return erased_points * static_cast<std::size_t>(mcs.n_bpsc);
}

void hard_decisions_into(std::span<const double> llrs, Bits& out) {
  out.resize(llrs.size());
  std::uint8_t* hard = out.data();
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    hard[i] = llrs[i] < 0.0 ? 1 : 0;
  }
}

std::uint64_t count_corrected_bits(std::span<const std::uint8_t> decoded,
                                   CodeRate rate,
                                   std::span<const double> decoder_input,
                                   PhyWorkspace& ws) {
  convolutional_encode_into(decoded, ws.recode_mother);
  puncture_into(ws.recode_mother, rate, ws.recoded);
  const std::size_t n = std::min(ws.recoded.size(), decoder_input.size());
  const std::uint8_t* recoded = ws.recoded.data();
  const double* llr = decoder_input.data();
  std::uint64_t corrected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int hard = llr[i] < 0.0 ? 1 : 0;
    corrected += static_cast<std::uint64_t>((llr[i] != 0.0) &
                                            (hard != recoded[i]));
  }
  return corrected;
}

CxVec equalize_data_points(std::span<const Cx> bins64,
                           const std::array<Cx, kFftSize>& channel) {
  CxVec points(kNumDataSubcarriers);
  equalize_data_points_into(bins64, channel, points);
  return points;
}

FrontEndResult receiver_front_end(std::span<const Cx> samples) {
  return receiver_front_end(samples, default_phy_workspace());
}

FrontEndResult receiver_front_end(std::span<const Cx> raw_samples,
                                  PhyWorkspace& ws) {
  FrontEndResult fe;
  if (raw_samples.size() <
      static_cast<std::size_t>(kPreambleSamples + kSymbolSamples)) {
    return fe;
  }
  OBS_SPAN("phy.rx.frontend");
  OBS_COUNT("phy.rx.packets");
  fe.preamble_ok = true;

  // Carrier synchronization: coarse CFO from the STF periodicity, then a
  // fine pass on the (coarse-corrected) LTF. On an offset-free input the
  // estimates are noise-level and the correction is a no-op. Both
  // corrections are those of correct_cfo() over the whole burst, but only
  // the samples later stages read are rotated and written: the LTF after
  // its guard and the FFT body of every whole symbol (SIGNAL, data and
  // trailer). Both phase recurrences still step through every sample.
  CxVec& corrected = ws.corrected;
  corrected.resize(raw_samples.size());
  {
    OBS_SPAN("phy.rx.sync");
    constexpr std::size_t kLtfBody = kStfSamples + 32;  // after the guard
    constexpr auto kPreamble = static_cast<std::size_t>(kPreambleSamples);
    const double coarse =
        estimate_cfo_coarse(raw_samples.first(kStfSamples));
    CfoRotator coarse_rotation(coarse);
    coarse_rotation.skip(kLtfBody);
    for (std::size_t n = kLtfBody; n < kPreamble; ++n) {
      corrected[n] = raw_samples[n] * coarse_rotation.next();
    }
    // Reads the LTF after its guard only.
    const double fine = estimate_cfo_fine(
        std::span(corrected).subspan(kStfSamples, kLtfSamples));
    CfoRotator fine_rotation(fine);
    fine_rotation.skip(kLtfBody);
    for (std::size_t n = kLtfBody; n < kPreamble; ++n) {
      corrected[n] *= fine_rotation.next();
    }
    const std::size_t symbols =
        (raw_samples.size() - kPreamble) / kSymbolSamples;
    for (std::size_t s = 0; s < symbols; ++s) {
      coarse_rotation.skip(kCpLength);
      fine_rotation.skip(kCpLength);
      const std::size_t body = kPreamble + s * kSymbolSamples + kCpLength;
      for (std::size_t n = body; n < body + kFftSize; ++n) {
        Cx x = raw_samples[n];
        x *= coarse_rotation.next();
        x *= fine_rotation.next();
        corrected[n] = x;
      }
    }
    fe.cfo_hz = coarse + fine;
    OBS_COUNT_N("phy.rx.sync.items", corrected.size());
  }
  const std::span<const Cx> samples(corrected);

  {
    OBS_SPAN("phy.rx.channel_est");
    fe.channel = estimate_channel(samples.subspan(kStfSamples, kLtfSamples));
  }

  // First-pass noise estimate from the SIGNAL symbol's pilots, refined
  // below by averaging over the data symbols.
  const auto signal_samples =
      samples.subspan(kPreambleSamples, kSymbolSamples);
  std::array<Cx, kFftSize> signal_bins;
  time_to_bins_into(signal_samples, signal_bins);
  double noise_sum = pilot_noise_estimate(signal_bins, fe.channel, 0);
  int noise_count = 1;
  fe.noise_var = noise_sum;

  {
    OBS_SPAN("phy.rx.signal");
    fe.signal = decode_signal_symbol(signal_bins, fe.channel, fe.noise_var, ws);
  }
  if (!fe.signal) return fe;

  const int n_sym =
      symbols_for_psdu(static_cast<std::size_t>(fe.signal->length_octets),
                       *fe.signal->mcs);
  const std::size_t needed =
      static_cast<std::size_t>(kPreambleSamples) +
      static_cast<std::size_t>(kSymbolSamples) *
          static_cast<std::size_t>(1 + n_sym);
  if (samples.size() < needed) {
    fe.signal.reset();
    return fe;
  }

  {
    OBS_SPAN("phy.rx.fft");
    fe.data_bins.reserve(static_cast<std::size_t>(n_sym));
    for (int s = 0; s < n_sym; ++s) {
      const auto offset = static_cast<std::size_t>(kPreambleSamples) +
                          static_cast<std::size_t>(kSymbolSamples) *
                              static_cast<std::size_t>(1 + s);
      const auto bins = fe.data_bins.append();
      time_to_bins_into(samples.subspan(offset, kSymbolSamples), bins);
      noise_sum += pilot_noise_estimate(bins, fe.channel, s + 1);
      ++noise_count;
    }
    OBS_COUNT_N("phy.rx.fft.items",
                static_cast<std::size_t>(n_sym) *
                    static_cast<std::size_t>(kSymbolSamples));
  }
  fe.noise_var = noise_sum / noise_count;
  OBS_COUNT_N("phy.rx.symbols", n_sym);

#if SILENCE_OBS_ON
  // Health waterfalls (every packet) and, when a flight recording is
  // active, the channel estimate the whole decode runs on (a = |H|^2 per
  // logical data subcarrier, b = the resulting bin SNR).
  {
    const bool flight_on = obs::flight::TrialRecording::active() != nullptr;
    const auto dbins = data_subcarrier_bins();
    for (int i = 0; i < kNumDataSubcarriers; ++i) {
      const double h2 = std::norm(
          fe.channel[static_cast<std::size_t>(
              dbins[static_cast<std::size_t>(i)])]);
      HEALTH_WATERFALL(
          kSnr, i,
          obs::health::quantize(h2 / fe.noise_var, obs::health::kSnrScale));
      HEALTH_WATERFALL(
          kChanMag, i,
          obs::health::quantize(std::sqrt(h2), obs::health::kChanScale));
      if (flight_on) {
        FLIGHT_EVENT("rx.csi", obs::flight::kNoIndex, i, h2,
                     h2 / fe.noise_var, 0);
      }
    }
  }
#endif

  // Any whole symbols after the data field are trailer symbols.
  const std::size_t n_trailer =
      samples.size() < needed + static_cast<std::size_t>(kSymbolSamples)
          ? 0
          : (samples.size() - needed) /
                static_cast<std::size_t>(kSymbolSamples);
  fe.trailer_bins.reserve(n_trailer);
  for (std::size_t s = 0; s < n_trailer; ++s) {
    const auto offset =
        needed + s * static_cast<std::size_t>(kSymbolSamples);
    time_to_bins_into(samples.subspan(offset, kSymbolSamples),
                      fe.trailer_bins.append());
  }
  return fe;
}

DecodeResult decode_data_symbols(const FrontEndResult& fe, const Mcs& mcs,
                                 int length_octets,
                                 const SilenceMask* silence) {
  return decode_data_symbols(fe, mcs, length_octets, silence,
                             default_phy_workspace());
}

DecodeResult decode_data_symbols(const FrontEndResult& fe, const Mcs& mcs,
                                 int length_octets, const SilenceMask* silence,
                                 PhyWorkspace& ws) {
  DecodeResult result;
  const int n_sym = static_cast<int>(fe.data_bins.size());
  if (n_sym == 0) return result;
  if (silence != nullptr &&
      silence->size() != static_cast<std::size_t>(n_sym)) {
    throw std::invalid_argument("decode_data_symbols: mask size mismatch");
  }

  OBS_SPAN("phy.rx.decode");
  result.eq_data.reserve(static_cast<std::size_t>(n_sym));

  // Pass 1 — equalize every symbol (plus per-symbol common-phase-error
  // derotation). The equalized grid is retained in eq_data regardless
  // (EVM needs it), so splitting demapping into a second pass costs
  // nothing and gives each stage its own timing span.
  {
    OBS_SPAN("phy.rx.equalize");
    for (int s = 0; s < n_sym; ++s) {
      const auto sym = static_cast<std::size_t>(s);
      const auto points = result.eq_data.append();
      equalize_data_points_into(fe.data_bins[sym], fe.channel, points);

      // Common phase error tracking: residual CFO and phase noise rotate
      // every subcarrier of a symbol by the same angle; the four known
      // pilots reveal it (standard 802.11a receiver practice).
      const auto rx_pilots = extract_pilot_points(fe.data_bins[sym]);
      const auto tx_pilots = pilot_values(s + 1);
      const auto pilot_bins = pilot_subcarrier_bins();
      Cx rotation{0.0, 0.0};
      for (int i = 0; i < kNumPilotSubcarriers; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const Cx expected =
            fe.channel[static_cast<std::size_t>(pilot_bins[idx])] *
            tx_pilots[idx];
        rotation += rx_pilots[idx] * std::conj(expected);
      }
      if (std::abs(rotation) > 1e-12) {
        const Cx derotate = std::conj(rotation) / std::abs(rotation);
        for (Cx& p : points) p *= derotate;
      }
    }
    OBS_COUNT_N("phy.rx.equalize.items",
                static_cast<std::size_t>(n_sym) *
                    static_cast<std::size_t>(kNumDataSubcarriers));
  }

  // Pass 2 — demap to LLRs, injecting EVD erasures on masked subcarriers
  // (paper Eq. 7, the e_k = 0 branch).
  [[maybe_unused]] std::size_t erased_bits = 0;
  {
    OBS_SPAN("phy.rx.demap");
    erased_bits = demap_data_symbols(result.eq_data, fe.channel, fe.noise_var,
                                     mcs, silence, ws.llrs);
    OBS_COUNT_N("phy.rx.demap.items", ws.llrs.size());
  }
  OBS_COUNT_N("cos.erasures_injected", erased_bits);

  {
    OBS_SPAN("phy.rx.deinterleave");
    deinterleave_llrs_into(ws.llrs, mcs, ws.deint);
  }
  hard_decisions_into(ws.deint, result.decoder_input_hard);

  const auto info_bits = static_cast<std::size_t>(n_sym) *
                         static_cast<std::size_t>(mcs.n_dbps);
  // The DATA field's pad bits are scrambled and therefore nonzero, so the
  // encoder does NOT finish in the all-zero state (only the tail bits are
  // re-zeroed, and padding follows them). Trace back from the best state.
  {
    OBS_SPAN("phy.rx.viterbi");
    depuncture_llrs_into(ws.deint, mcs.code_rate, info_bits * 2, ws.mother);
    shared_decoder().decode_fixed(ws.mother, /*terminated=*/false, ws.viterbi,
                                  ws.scrambled);
    OBS_COUNT_N("phy.rx.viterbi.items", ws.scrambled.size());
  }
  const Bits& scrambled = ws.scrambled;

#if SILENCE_OBS_ON
  {
    const std::uint64_t corrected =
        count_corrected_bits(scrambled, mcs.code_rate, ws.deint, ws);
    OBS_COUNT_N("cos.bits_corrected", corrected);
    // Flight: a = corrected bits, b = erased bits fed in, u = decoded
    // bit count — the EVD workload of this packet in one event.
    FLIGHT_EVENT("rx.viterbi", obs::flight::kNoIndex, obs::flight::kNoIndex,
                 corrected, erased_bits, scrambled.size());
  }
#endif

  // Descramble: the transmitter's 7-bit seed is recoverable from the first
  // 7 SERVICE bits, which are zero before scrambling.
  std::uint8_t seed = 0;
  try {
    seed = Scrambler::recover_seed(std::span(scrambled).first(7));
  } catch (const std::runtime_error&) {
    return result;  // hopelessly corrupt
  }
  result.scrambler_seed = seed;
  {
    OBS_SPAN("phy.rx.descramble");
    Scrambler::apply_with_seed_into(seed, scrambled, result.info_bits);
  }

  const std::size_t psdu_bits = 8 * static_cast<std::size_t>(length_octets);
  if (result.info_bits.size() < kServiceBits + psdu_bits) return result;
  result.psdu = bits_to_bytes(
      std::span(result.info_bits).subspan(kServiceBits, psdu_bits));
  result.crc_ok = check_fcs(result.psdu);
  FLIGHT_EVENT("rx.crc", obs::flight::kNoIndex, obs::flight::kNoIndex,
               result.psdu.size(), 0.0, result.crc_ok ? 1 : 0);
  if (result.crc_ok) {
    OBS_COUNT("phy.rx.crc_ok");
  } else {
    OBS_COUNT("phy.rx.crc_fail");
  }
  return result;
}

RxPacket receive_packet_unaligned(std::span<const Cx> samples) {
  const auto start = detect_frame_start(samples);
  if (!start) return {};
  return receive_packet(samples.subspan(*start));
}

RxPacket receive_packet(std::span<const Cx> samples) {
  return receive_packet(samples, default_phy_workspace());
}

RxPacket receive_packet(std::span<const Cx> samples, PhyWorkspace& ws) {
  RxPacket packet;
  const FrontEndResult fe = receiver_front_end(samples, ws);
  packet.signal = fe.signal;
  if (!fe.signal) return packet;
  DecodeResult decode =
      decode_data_symbols(fe, *fe.signal->mcs, fe.signal->length_octets,
                          nullptr, ws);
  packet.psdu = std::move(decode.psdu);
  packet.ok = decode.crc_ok;
  return packet;
}

}  // namespace silence

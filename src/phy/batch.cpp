#include "phy/batch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "common/crc32.h"
#include "obs/flight/flight.h"
#include "obs/health/health.h"
#include "obs/obs.h"
#include "phy/interleaver.h"
#include "phy/ofdm.h"
#include "phy/pilots.h"
#include "phy/preamble.h"
#include "phy/puncture.h"
#include "phy/scrambler.h"
#include "phy/sync.h"
#include "phy/viterbi_kernels.h"

namespace silence {
namespace {

constexpr int kServiceBits = 16;
constexpr std::size_t kT = PhyBatch::kRowTile;

std::atomic<bool> g_phy_batch_enabled{true};

const ViterbiDecoder& shared_decoder() {
  static const ViterbiDecoder decoder;
  return decoder;
}

// --- Row-tiled FFT kernels ------------------------------------------------
//
// `re`/`im` hold kFftSize x kT split-complex values, bin-major and
// row-minor (re[bin * kT + row]). Each row is one symbol; the butterfly
// inner loop runs over the contiguous row dimension, so the compiler
// vectorizes it with one twiddle broadcast per butterfly. The operation
// sequence per row replays FftPlan::run exactly: same bit-reversal
// swaps, same stage order, same twiddle values, and the same inlined
// complex-multiply form (r = ac - bd, i = ad + bc) libstdc++ emits, so
// every row's result is bit-identical to fft_plan(64) on that symbol.

void fft64_rows(double* re, double* im, const Cx* twiddle,
                const std::uint32_t* bitrev) {
  for (std::size_t i = 1; i < kFftSize; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) {
      double* ar = re + i * kT;
      double* br = re + j * kT;
      double* ai = im + i * kT;
      double* bi = im + j * kT;
      for (std::size_t r = 0; r < kT; ++r) {
        std::swap(ar[r], br[r]);
        std::swap(ai[r], bi[r]);
      }
    }
  }
  for (std::size_t len = 2; len <= kFftSize; len <<= 1) {
    const Cx* w = twiddle + (len / 2 - 1);
    for (std::size_t i = 0; i < kFftSize; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const double wr = w[j].real();
        const double wi = w[j].imag();
        double* ar = re + (i + j) * kT;
        double* ai = im + (i + j) * kT;
        double* br = re + (i + j + len / 2) * kT;
        double* bi = im + (i + j + len / 2) * kT;
        for (std::size_t r = 0; r < kT; ++r) {
          const double ur = ar[r];
          const double ui = ai[r];
          const double xr = br[r];
          const double xi = bi[r];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          ar[r] = ur + vr;
          ai[r] = ui + vi;
          br[r] = ur - vr;
          bi[r] = ui - vi;
        }
      }
    }
  }
}

void ifft64_rows(double* re, double* im, const Cx* twiddle,
                 const std::uint32_t* bitrev) {
  fft64_rows(re, im, twiddle, bitrev);
  // Same per-element scaling as FftPlan::inverse (operator*=(double)
  // multiplies the real and imaginary parts independently).
  const double scale = 1.0 / static_cast<double>(kFftSize);
  for (std::size_t n = 0; n < kFftSize * kT; ++n) {
    re[n] *= scale;
    im[n] *= scale;
  }
}

void zero_unused_rows(PhyBatch& batch, std::size_t rows) {
  if (rows >= kT) return;
  for (std::size_t k = 0; k < kFftSize; ++k) {
    for (std::size_t r = rows; r < kT; ++r) {
      batch.tile_re[k * kT + r] = 0.0;
      batch.tile_im[k * kT + r] = 0.0;
    }
  }
}

// Gathers `rows` consecutive CP-stripped symbol bodies starting at sample
// `offset`, FFTs all rows in one tile pass, and appends one 64-bin row
// per symbol to `grid`.
void fft_tile_append(std::span<const Cx> samples, std::size_t offset,
                     std::size_t rows, PhyBatch& batch, SymbolGrid& grid) {
  double* re = batch.tile_re.data();
  double* im = batch.tile_im.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const Cx* body = samples.data() + offset +
                     r * static_cast<std::size_t>(kSymbolSamples) + kCpLength;
    for (std::size_t k = 0; k < kFftSize; ++k) {
      re[k * kT + r] = body[k].real();
      im[k * kT + r] = body[k].imag();
    }
  }
  zero_unused_rows(batch, rows);
  const FftPlan& plan = fft_plan(kFftSize);
  fft64_rows(re, im, plan.forward_twiddles().data(),
             plan.bit_reversal().data());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto bins = grid.append();
    for (std::size_t k = 0; k < kFftSize; ++k) {
      bins[k] = Cx(re[k * kT + r], im[k * kT + r]);
    }
  }
}

void reset_front_end(FrontEndResult& fe) {
  fe.preamble_ok = false;
  fe.signal.reset();
  fe.channel.fill(Cx{0.0, 0.0});
  fe.noise_var = 0.0;
  fe.cfo_hz = 0.0;
  fe.data_bins.clear();
  fe.trailer_bins.clear();
}

void reset_decode(DecodeResult& result) {
  result.crc_ok = false;
  result.psdu.clear();
  result.eq_data.clear();
  result.decoder_input_hard.clear();
  result.info_bits.clear();
  result.scrambler_seed = 0;
}

// --- Front end ------------------------------------------------------------
//
// Mirrors receiver_front_end() step for step (sync, channel estimate,
// SIGNAL decode, per-symbol noise estimate, observability events in the
// same order); only the data/trailer FFT loop runs through the row tiles.

void front_end_into(std::span<const Cx> raw_samples, PhyWorkspace& ws,
                    PhyBatch& batch, FrontEndResult& fe) {
  if (raw_samples.size() <
      static_cast<std::size_t>(kPreambleSamples + kSymbolSamples)) {
    return;
  }
  OBS_SPAN("phy.rx.frontend");
  OBS_COUNT("phy.rx.packets");
  fe.preamble_ok = true;

  ws.corrected.assign(raw_samples.begin(), raw_samples.end());
  CxVec& corrected = ws.corrected;
  {
    OBS_SPAN("phy.rx.sync");
    const double coarse =
        estimate_cfo_coarse(std::span(corrected).first(kStfSamples));
    correct_cfo(corrected, coarse);
    const double fine = estimate_cfo_fine(
        std::span(corrected).subspan(kStfSamples, kLtfSamples));
    correct_cfo(corrected, fine);
    fe.cfo_hz = coarse + fine;
    OBS_COUNT_N("phy.rx.sync.items", corrected.size());
  }
  const std::span<const Cx> samples(corrected);

  {
    OBS_SPAN("phy.rx.channel_est");
    fe.channel = estimate_channel(samples.subspan(kStfSamples, kLtfSamples));
  }

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
  if (!fe.signal) return;

  const int n_sym =
      symbols_for_psdu(static_cast<std::size_t>(fe.signal->length_octets),
                       *fe.signal->mcs);
  const std::size_t needed =
      static_cast<std::size_t>(kPreambleSamples) +
      static_cast<std::size_t>(kSymbolSamples) *
          static_cast<std::size_t>(1 + n_sym);
  if (samples.size() < needed) {
    fe.signal.reset();
    return;
  }

  {
    OBS_SPAN("phy.rx.fft");
    fe.data_bins.reserve(static_cast<std::size_t>(n_sym));
    for (int s0 = 0; s0 < n_sym; s0 += static_cast<int>(kT)) {
      const auto rows = std::min(kT, static_cast<std::size_t>(n_sym - s0));
      const auto offset = static_cast<std::size_t>(kPreambleSamples) +
                          static_cast<std::size_t>(kSymbolSamples) *
                              static_cast<std::size_t>(1 + s0);
      fft_tile_append(samples, offset, rows, batch, fe.data_bins);
    }
    // Accumulated in symbol order, exactly as the scalar chain's
    // FFT+estimate interleaving does.
    for (int s = 0; s < n_sym; ++s) {
      noise_sum += pilot_noise_estimate(fe.data_bins[static_cast<std::size_t>(s)],
                                        fe.channel, s + 1);
      ++noise_count;
    }
    OBS_COUNT_N("phy.rx.fft.items",
                static_cast<std::size_t>(n_sym) *
                    static_cast<std::size_t>(kSymbolSamples));
  }
  fe.noise_var = noise_sum / noise_count;
  OBS_COUNT_N("phy.rx.symbols", n_sym);

#if SILENCE_OBS_ON
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

  const std::size_t n_trailer =
      samples.size() < needed + static_cast<std::size_t>(kSymbolSamples)
          ? 0
          : (samples.size() - needed) /
                static_cast<std::size_t>(kSymbolSamples);
  fe.trailer_bins.reserve(n_trailer);
  for (std::size_t s0 = 0; s0 < n_trailer; s0 += kT) {
    const auto rows = std::min(kT, n_trailer - s0);
    const auto offset =
        needed + s0 * static_cast<std::size_t>(kSymbolSamples);
    fft_tile_append(samples, offset, rows, batch, fe.trailer_bins);
  }
}

// --- Decode phases --------------------------------------------------------
//
// The scalar decode_data_symbols() body split at the Viterbi call so the
// multi-lane facade can run decode_fixed_batch across lanes. Every
// floating-point operation matches the scalar chain; the phases only
// change *when* each lane's stages run, never what they compute.

struct DecodePrep {
  bool ready = false;  // reached the depuncture/Viterbi stage
  std::size_t erased_bits = 0;
  std::size_t info_bits = 0;
};

DecodePrep decode_pre(const FrontEndResult& fe, const Mcs& mcs,
                      const SilenceMask* silence, PhyWorkspace& ws,
                      DecodeResult& result) {
  DecodePrep prep;
  const int n_sym = static_cast<int>(fe.data_bins.size());
  if (n_sym == 0) return prep;
  if (silence != nullptr &&
      silence->size() != static_cast<std::size_t>(n_sym)) {
    throw std::invalid_argument("decode_data_symbols: mask size mismatch");
  }

  result.eq_data.reserve(static_cast<std::size_t>(n_sym));

  {
    OBS_SPAN("phy.rx.equalize");
    for (int s = 0; s < n_sym; ++s) {
      const auto sym = static_cast<std::size_t>(s);
      const auto points = result.eq_data.append();
      equalize_data_points_into(fe.data_bins[sym], fe.channel, points);

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

  {
    OBS_SPAN("phy.rx.demap");
    prep.erased_bits = demap_data_symbols(result.eq_data, fe.channel,
                                          fe.noise_var, mcs, silence, ws.llrs);
    OBS_COUNT_N("phy.rx.demap.items", ws.llrs.size());
  }
  OBS_COUNT_N("cos.erasures_injected", prep.erased_bits);

  {
    OBS_SPAN("phy.rx.deinterleave");
    deinterleave_llrs_into(ws.llrs, mcs, ws.deint);
  }
  hard_decisions_into(ws.deint, result.decoder_input_hard);

  prep.info_bits = static_cast<std::size_t>(n_sym) *
                   static_cast<std::size_t>(mcs.n_dbps);
  prep.ready = true;
  return prep;
}

void decode_post(const Mcs& mcs, int length_octets,
                 const DecodePrep& prep, const Bits& scrambled,
                 PhyWorkspace& ws, DecodeResult& result) {
#if SILENCE_OBS_ON
  {
    const std::uint64_t corrected =
        count_corrected_bits(scrambled, mcs.code_rate, ws.deint, ws);
    OBS_COUNT_N("cos.bits_corrected", corrected);
    FLIGHT_EVENT("rx.viterbi", obs::flight::kNoIndex, obs::flight::kNoIndex,
                 corrected, prep.erased_bits, scrambled.size());
  }
#else
  (void)mcs;
  (void)prep;
#endif

  std::uint8_t seed = 0;
  try {
    seed = Scrambler::recover_seed(std::span(scrambled).first(7));
  } catch (const std::runtime_error&) {
    return;  // hopelessly corrupt
  }
  result.scrambler_seed = seed;
  {
    OBS_SPAN("phy.rx.descramble");
    // Cached-period XOR; bit-identical to Scrambler(seed).apply().
    Scrambler::apply_with_seed_into(seed, scrambled, result.info_bits);
  }

  const std::size_t psdu_bits = 8 * static_cast<std::size_t>(length_octets);
  if (result.info_bits.size() < kServiceBits + psdu_bits) return;
  bits_to_bytes_into(std::span(result.info_bits).subspan(kServiceBits, psdu_bits),
                     result.psdu);
  result.crc_ok = check_fcs(result.psdu);
  FLIGHT_EVENT("rx.crc", obs::flight::kNoIndex, obs::flight::kNoIndex,
               result.psdu.size(), 0.0, result.crc_ok ? 1 : 0);
  if (result.crc_ok) {
    OBS_COUNT("phy.rx.crc_ok");
  } else {
    OBS_COUNT("phy.rx.crc_fail");
  }
}

}  // namespace

bool phy_batch_enabled() {
  return g_phy_batch_enabled.load(std::memory_order_relaxed);
}

void set_phy_batch_enabled(bool on) {
  g_phy_batch_enabled.store(on, std::memory_order_relaxed);
}

FrontEndResult receiver_front_end_batch(std::span<const Cx> samples,
                                        PhyBatch& batch) {
  FrontEndResult fe;
  front_end_into(samples, batch.lane_ws[0], batch, fe);
  return fe;
}

DecodeResult decode_data_symbols_batch(const FrontEndResult& fe,
                                       const Mcs& mcs, int length_octets,
                                       const SilenceMask* silence,
                                       PhyBatch& batch) {
  DecodeResult result;
  if (fe.data_bins.size() == 0) return result;
  PhyWorkspace& ws = batch.lane_ws[0];

  OBS_SPAN("phy.rx.decode");
  const DecodePrep prep = decode_pre(fe, mcs, silence, ws, result);
  if (!prep.ready) return result;
  {
    OBS_SPAN("phy.rx.viterbi");
    depuncture_llrs_into(ws.deint, mcs.code_rate, prep.info_bits * 2,
                         ws.mother);
    shared_decoder().decode_fixed(ws.mother, /*terminated=*/false, ws.viterbi,
                                  ws.scrambled);
    OBS_COUNT_N("phy.rx.viterbi.items", ws.scrambled.size());
  }
  decode_post(mcs, length_octets, prep, ws.scrambled, ws, result);
  return result;
}

RxPacket receive_packet_batch(std::span<const Cx> samples, PhyBatch& batch) {
  RxPacket packet;
  const FrontEndResult fe = receiver_front_end_batch(samples, batch);
  packet.signal = fe.signal;
  if (!fe.signal) return packet;
  DecodeResult decode = decode_data_symbols_batch(
      fe, *fe.signal->mcs, fe.signal->length_octets, nullptr, batch);
  packet.psdu = std::move(decode.psdu);
  packet.ok = decode.crc_ok;
  return packet;
}

void decode_data_symbols_batch(std::span<const DecodeLane> lanes,
                               PhyBatch& batch, std::span<DecodeResult> out) {
  if (out.size() != lanes.size()) {
    throw std::invalid_argument(
        "decode_data_symbols_batch: output size mismatch");
  }
  for (std::size_t g = 0; g < lanes.size(); g += PhyBatch::kMaxLanes) {
    const std::size_t n = std::min(PhyBatch::kMaxLanes, lanes.size() - g);

    // Phase 1: per-lane decode up to the Viterbi input.
    std::array<DecodePrep, PhyBatch::kMaxLanes> preps;
    OBS_SPAN("phy.rx.decode");
    for (std::size_t i = 0; i < n; ++i) {
      reset_decode(out[g + i]);
      const DecodeLane& lane = lanes[g + i];
      preps[i] = DecodePrep{};
      if (lane.fe == nullptr || lane.fe->data_bins.size() == 0) continue;
      preps[i] = decode_pre(*lane.fe, *lane.mcs, lane.silence,
                            batch.lane_ws[i], out[g + i]);
    }

    // Phase 2: depuncture per lane, then one lane-batched Viterbi sweep.
    {
      OBS_SPAN("phy.rx.viterbi");
      batch.llr_spans.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (!preps[i].ready) continue;
        PhyWorkspace& ws = batch.lane_ws[i];
        depuncture_llrs_into(ws.deint, lanes[g + i].mcs->code_rate,
                             preps[i].info_bits * 2, ws.mother);
        batch.llr_spans.push_back(ws.mother);
      }
      if (batch.llr_spans.size() == 1 ||
          viterbi_kernels::acs_kernel().outruns_lockstep) {
        // A single lane gains nothing from lockstep, and neither do
        // several when decode_fixed runs the AVX2 kernel; it is
        // bit-identical lane by lane.
        for (std::size_t i = 0; i < n; ++i) {
          if (!preps[i].ready) continue;
          PhyWorkspace& ws = batch.lane_ws[i];
          shared_decoder().decode_fixed(ws.mother, /*terminated=*/false,
                                        ws.viterbi, ws.scrambled);
        }
      } else if (!batch.llr_spans.empty()) {
        shared_decoder().decode_fixed_batch(
            batch.llr_spans, /*terminated=*/false, batch.viterbi,
            std::span(batch.viterbi_out.data(), batch.llr_spans.size()));
        std::size_t slot = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (!preps[i].ready) continue;
          batch.lane_ws[i].scrambled = batch.viterbi_out[slot++];
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (!preps[i].ready) continue;
        OBS_COUNT_N("phy.rx.viterbi.items",
                    batch.lane_ws[i].scrambled.size());
      }
    }

    // Phase 3: per-lane descramble + CRC.
    for (std::size_t i = 0; i < n; ++i) {
      if (!preps[i].ready) continue;
      decode_post(*lanes[g + i].mcs, lanes[g + i].length_octets, preps[i],
                  batch.lane_ws[i].scrambled, batch.lane_ws[i], out[g + i]);
    }
  }
}

void receive_packet_batch(std::span<const std::span<const Cx>> bursts,
                          PhyBatch& batch, std::span<RxPacket> out) {
  if (out.size() != bursts.size()) {
    throw std::invalid_argument("receive_packet_batch: output size mismatch");
  }
  for (std::size_t g = 0; g < bursts.size(); g += PhyBatch::kMaxLanes) {
    const std::size_t n = std::min(PhyBatch::kMaxLanes, bursts.size() - g);

    // Per-lane front ends (tiled FFTs within each packet), then one
    // grouped decode with the lane-batched Viterbi.
    std::array<DecodeLane, PhyBatch::kMaxLanes> lanes;
    for (std::size_t i = 0; i < n; ++i) {
      reset_front_end(batch.lane_fe[i]);
      front_end_into(bursts[g + i], batch.lane_ws[i], batch,
                     batch.lane_fe[i]);
      lanes[i] = DecodeLane{};
      if (batch.lane_fe[i].signal) {
        lanes[i].fe = &batch.lane_fe[i];
        lanes[i].mcs = &*batch.lane_fe[i].signal->mcs;
        lanes[i].length_octets = batch.lane_fe[i].signal->length_octets;
      }
    }
    decode_data_symbols_batch(std::span(lanes.data(), n), batch,
                              std::span(batch.lane_decode.data(), n));

    for (std::size_t i = 0; i < n; ++i) {
      RxPacket& packet = out[g + i];
      packet.ok = false;
      packet.psdu.clear();
      packet.signal = batch.lane_fe[i].signal;
      if (!packet.signal) continue;
      packet.psdu = batch.lane_decode[i].psdu;
      packet.ok = batch.lane_decode[i].crc_ok;
    }
  }
}

CxVec frame_to_samples_batch(const TxFrame& frame, PhyBatch& batch) {
  CxVec samples = frame_samples_prefix(frame);
  const std::span<Cx> out(samples);
  const int n_sym = frame.num_symbols();

  double* re = batch.tile_re.data();
  double* im = batch.tile_im.data();
  std::array<Cx, kFftSize> bins;
  {
    OBS_SPAN("phy.tx.ifft");
    const FftPlan& plan = fft_plan(kFftSize);
    for (int s0 = 0; s0 < n_sym; s0 += static_cast<int>(kT)) {
      const auto rows = std::min(kT, static_cast<std::size_t>(n_sym - s0));
      for (std::size_t r = 0; r < rows; ++r) {
        const int s = s0 + static_cast<int>(r);
        assemble_frequency_bins_into(
            frame.data_grid[static_cast<std::size_t>(s)], s + 1, bins);
        for (std::size_t k = 0; k < kFftSize; ++k) {
          re[k * kT + r] = bins[k].real();
          im[k * kT + r] = bins[k].imag();
        }
      }
      zero_unused_rows(batch, rows);
      ifft64_rows(re, im, plan.inverse_twiddles().data(),
                  plan.bit_reversal().data());
      for (std::size_t r = 0; r < rows; ++r) {
        const auto offset =
            static_cast<std::size_t>(kPreambleSamples) +
            static_cast<std::size_t>(kSymbolSamples) *
                static_cast<std::size_t>(1 + s0 + static_cast<int>(r));
        for (std::size_t k = 0; k < kFftSize; ++k) {
          out[offset + kCpLength + k] = Cx(re[k * kT + r], im[k * kT + r]);
        }
        // Cyclic prefix: the body's last 16 samples, as bins_to_time_into.
        for (std::size_t k = 0; k < static_cast<std::size_t>(kCpLength); ++k) {
          out[offset + k] = out[offset + kFftSize + k];
        }
      }
    }
  }
  OBS_COUNT_N("phy.tx.ifft.items",
              static_cast<std::size_t>(n_sym) *
                  static_cast<std::size_t>(kSymbolSamples));
  OBS_COUNT_N("phy.tx.samples", samples.size());
  return samples;
}

}  // namespace silence

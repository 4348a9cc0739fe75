#include "phy/batch.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/crc32.h"
#include "obs/flight/flight.h"
#include "obs/obs.h"
#include "phy/interleaver.h"
#include "phy/ofdm.h"
#include "phy/pilots.h"
#include "phy/puncture.h"
#include "phy/scrambler.h"
#include "phy/viterbi_kernels.h"

namespace silence {
namespace {

constexpr int kServiceBits = 16;

std::atomic<bool> g_phy_batch_enabled{true};

const ViterbiDecoder& shared_decoder() {
  static const ViterbiDecoder decoder;
  return decoder;
}

void reset_decode(DecodeResult& result) {
  result.crc_ok = false;
  result.psdu.clear();
  result.eq_data.clear();
  result.decoder_input_hard.clear();
  result.info_bits.clear();
  result.scrambler_seed = 0;
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
  return receiver_front_end(samples, batch.lane_ws[0]);
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

    // Per-lane front ends, then one grouped decode with the lane-batched
    // Viterbi.
    std::array<DecodeLane, PhyBatch::kMaxLanes> lanes;
    for (std::size_t i = 0; i < n; ++i) {
      receiver_front_end_into(bursts[g + i], batch.lane_ws[i],
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

}  // namespace silence

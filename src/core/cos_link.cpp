#include "core/cos_link.h"

#include <stdexcept>
#include <utility>

#include "core/interval_code.h"
#include "obs/flight/flight.h"
#include "obs/health/health.h"
#include "obs/obs.h"
#include "phy/modulation.h"

namespace silence {

CosTxPacket cos_transmit(std::span<const std::uint8_t> psdu,
                         std::span<const std::uint8_t> control_bits,
                         const CosTxConfig& config) {
  OBS_SPAN("cos.tx");
  if (!config.mcs.valid()) {
    throw std::invalid_argument("cos_transmit: no MCS configured");
  }
  OBS_COUNT("cos.tx.packets");
  CosTxPacket packet;
  packet.frame = build_frame(psdu, *config.mcs, config.scrambler_seed);
  if (!config.control_subcarriers.empty() && !control_bits.empty()) {
    packet.plan =
        plan_silences(control_bits, packet.frame.num_symbols(),
                      config.control_subcarriers, config.bits_per_interval);
    apply_silences(packet.frame.data_grid, packet.plan.mask);
  } else {
    packet.plan.mask = empty_mask(packet.frame.num_symbols());
  }
  packet.samples = frame_to_samples(packet.frame);
  return packet;
}

SymbolGrid reconstruct_ideal_grid(const DecodeResult& decode,
                                  const Mcs& mcs) {
  if (!decode.crc_ok) {
    throw std::invalid_argument("reconstruct_ideal_grid: CRC must pass");
  }
  TxFrame frame = build_frame(decode.psdu, mcs, decode.scrambler_seed);
  return std::move(frame.data_grid);
}

CosRxPacket cos_receive(std::span<const Cx> samples,
                        const CosRxConfig& config,
                        std::optional<Modulation> next_mod) {
  return cos_receive(samples, config, next_mod, default_phy_workspace());
}

CosRxPacket cos_receive(std::span<const Cx> samples,
                        const CosRxConfig& config,
                        std::optional<Modulation> next_mod, PhyWorkspace& ws) {
  OBS_SPAN("cos.rx");
  OBS_COUNT("cos.rx.packets");
  CosRxPacket packet;
  packet.fe = receiver_front_end(samples, ws);
  if (!packet.fe.signal) return packet;
  const Mcs& mcs = *packet.fe.signal->mcs;

  // Energy detection locates silence symbols before demodulation
  // (paper Eq. 7: all silence symbols are marked first). The detector
  // needs the packet's modulation (known from SIGNAL) for its
  // per-subcarrier thresholds.
  DetectorConfig detector = config.detector;
  detector.modulation = mcs.modulation;
  packet.detected_mask =
      detect_silences(packet.fe, config.control_subcarriers, detector);

  // Control message: intervals between detected silences.
  {
    OBS_SPAN("cos.rx.intervals");
    const std::vector<int> intervals =
        mask_to_intervals(packet.detected_mask, config.control_subcarriers);
    packet.control_bits =
        intervals_to_bits_tolerant(intervals, config.bits_per_interval);
    HEALTH_COUNT(kDecodeRounds);
    HEALTH_COUNT_N(kIntervalsDetected, intervals.size());
    HEALTH_COUNT_N(kBitsDecoded, packet.control_bits.size());
  }
  OBS_COUNT_N("cos.control_bits_recovered", packet.control_bits.size());
  std::size_t detected_silences = 0;
  for (const auto& row : packet.detected_mask) {
    for (const auto cell : row) detected_silences += cell != 0;
  }
  FLIGHT_EVENT("cos.control", obs::flight::kNoIndex, obs::flight::kNoIndex,
               packet.control_bits.size(), detected_silences, 0);

  // Data decode with EVD over the detected mask.
  packet.decode =
      decode_data_symbols(packet.fe, mcs, packet.fe.signal->length_octets,
                          &packet.detected_mask, ws);
  packet.data_ok = packet.decode.crc_ok;
  packet.psdu = packet.decode.psdu;

  if (packet.data_ok) {
    OBS_COUNT("cos.rx.data_ok");
    OBS_SPAN("cos.rx.evm");
    const SymbolGrid ideal = reconstruct_ideal_grid(packet.decode, mcs);
    packet.evm = per_subcarrier_evm(packet.decode.eq_data, ideal,
                                    mcs.modulation, &packet.detected_mask);
    packet.evm_valid = true;
    // Next-packet selection: weak subcarriers, but only those on which
    // the detector can still tell silence from the next modulation's
    // weakest active symbol.
    const Modulation next = next_mod.value_or(mcs.modulation);
    DetectorConfig next_detector = config.detector;
    next_detector.modulation = next;
    std::vector<std::uint8_t> detectable(kNumDataSubcarriers, 0);
    for (int sc = 0; sc < kNumDataSubcarriers; ++sc) {
      detectable[static_cast<std::size_t>(sc)] = subcarrier_detectable(
          next_detector, packet.fe.noise_var, packet.fe.channel, sc);
    }
    packet.next_control_subcarriers = select_control_subcarriers(
        packet.evm, next, config.min_feedback_subcarriers,
        kNumDataSubcarriers, detectable);
#if SILENCE_OBS_ON
    // Health: post-CRC EVM waterfall plus the selection audit — how many
    // subcarriers the detector could discriminate on, and how many were
    // actually erroneous under the selection's own criterion (EVM above
    // half the next modulation's minimum constellation distance).
    const double half_dm = min_constellation_distance(next) / 2.0;
    std::uint64_t n_detectable = 0;
    std::uint64_t n_erroneous = 0;
    for (int sc = 0; sc < kNumDataSubcarriers; ++sc) {
      const double evm = packet.evm[static_cast<std::size_t>(sc)];
      HEALTH_WATERFALL(kEvm, sc,
                       obs::health::quantize(evm, obs::health::kEvmScale));
      n_detectable += detectable[static_cast<std::size_t>(sc)] != 0;
      n_erroneous += evm > half_dm;
    }
    HEALTH_COUNT(kSelectionRounds);
    HEALTH_COUNT_N(kSubcarriersSelected,
                   packet.next_control_subcarriers.size());
    HEALTH_COUNT_N(kSubcarriersDetectable, n_detectable);
    HEALTH_COUNT_N(kSubcarriersErroneous, n_erroneous);
#endif
  }
  // Sampled pid-3 counter tracks for armed traces; a relaxed-load no-op
  // otherwise. Per received packet, like the sim/net layer hooks.
  obs::health::maybe_trace_counters();
  return packet;
}

}  // namespace silence

#include "sim/session.h"

#include <algorithm>
#include <cmath>

#include "obs/health/health.h"

namespace silence {

CosSession::CosSession(Link& link, const SessionConfig& config)
    : link_(link),
      config_(config),
      control_subcarriers_(config.profile.control_subcarriers) {}

int CosSession::desired_control_subcarriers(int silence_budget,
                                            int num_symbols) const {
  if (silence_budget <= 0 || num_symbols <= 0) return 1;
  // Average grid positions per silence symbol: the mean interval value
  // (2^k - 1)/2 plus the silence itself.
  const double mean_positions =
      (std::pow(2.0, config_.profile.bits_per_interval) - 1.0) / 2.0 + 1.0;
  const double needed = silence_budget * mean_positions;
  const int count = static_cast<int>(
      std::ceil(needed / static_cast<double>(num_symbols)));
  return std::clamp(count, 1, kNumDataSubcarriers);
}

PacketReport CosSession::send_packet(
    std::span<const std::uint8_t> psdu,
    std::span<const std::uint8_t> control_bits) {
  PacketReport report;
  report.measured_snr_db = link_.measured_snr_db();

  const McsId mcs_id = config_.fixed_rate_mbps
                           ? McsId::for_rate(*config_.fixed_rate_mbps)
                           : McsId::for_snr(report.measured_snr_db);
  const Mcs& mcs = *mcs_id;
  report.mcs = mcs_id;

  // Control-message rate: lookup by measured SNR, or the lowest rate when
  // the previous feedback was lost (paper §III-F).
  int rm = config_.control_rate_override.value_or(
      select_control_rate(report.measured_snr_db));
  if (!config_.control_rate_override && !have_feedback_) {
    rm = std::min(rm, lowest_control_rate());
  }

  const int n_sym = symbols_for_psdu(psdu.size(), mcs);
  const double airtime = kPreambleDurationSec + kSignalDurationSec +
                         n_sym * kSymbolDurationSec;
  const int budget = silence_budget_for_packet(rm, airtime);

  // Bits the silence budget allows: budget silences close budget-1
  // intervals of k bits each. When the whole message fits, send it all —
  // the planner zero-pads a trailing partial interval itself.
  const auto k = static_cast<std::size_t>(config_.profile.bits_per_interval);
  const std::size_t budget_bits =
      budget > 1 ? (static_cast<std::size_t>(budget) - 1) * k : 0;
  const std::size_t bits_to_send =
      control_bits.size() <= budget_bits
          ? control_bits.size()
          : budget_bits / k * k;

  CosTxConfig tx_config(config_.profile, mcs_id);
  tx_config.control_subcarriers = control_subcarriers_;
  const CosTxPacket tx =
      cos_transmit(psdu, control_bits.first(bits_to_send), tx_config);
  report.silences_sent = tx.plan.silence_count;
  report.control_bits_sent = tx.plan.bits_sent;

  const CxVec received = link_.send(tx.samples);
  link_.advance(tx.frame.airtime_sec());

  CosRxConfig rx_config = config_.profile;
  rx_config.control_subcarriers = control_subcarriers_;
  // Size the next packet's control grid for the budget the sender will
  // have once feedback exists (the full table rate) — not this packet's
  // possibly fallback-clamped budget, or the grid never grows out of the
  // bootstrap's tiny request.
  const int steady_rm = config_.control_rate_override.value_or(
      select_control_rate(report.measured_snr_db));
  rx_config.min_feedback_subcarriers = desired_control_subcarriers(
      silence_budget_for_packet(steady_rm, airtime), n_sym);
  report.rx = cos_receive(received, rx_config, std::nullopt,
                          config_.workspace != nullptr
                              ? *config_.workspace
                              : default_phy_workspace());
  report.data_ok = report.rx.data_ok;

  // Control accuracy: longest matching prefix of the sent control bits.
  const auto& decoded = report.rx.control_bits;
  std::size_t correct = 0;
  while (correct < report.control_bits_sent && correct < decoded.size() &&
         decoded[correct] == control_bits[correct]) {
    ++correct;
  }
  report.control_bits_correct = correct;
  report.control_ok = correct == report.control_bits_sent;

  // Feedback: a decoded packet lets the receiver return the next
  // selection; a failed packet means the sender hears nothing.
  if (report.data_ok) {
    have_feedback_ = true;
#if SILENCE_OBS_ON
    if (report.rx.evm_valid) {
      if (prev_evm_) {
        HEALTH_NABLA_EVM(obs::health::quantize(
            evm_change(*prev_evm_, report.rx.evm),
            obs::health::kNablaEvmScale));
        *prev_evm_ = report.rx.evm;
      } else {
        prev_evm_ = std::make_unique<SubcarrierEvm>(report.rx.evm);
      }
    }
#endif
    if (config_.use_selection_feedback) {
      // An empty selection means no subcarrier currently supports
      // reliable silence detection: CoS falls silent on the next packet
      // rather than corrupting the control channel. Selection keeps
      // being recomputed every decoded packet, so it recovers by itself.
      control_subcarriers_ = report.rx.next_control_subcarriers;
    }
  } else {
    have_feedback_ = false;
  }
  return report;
}

}  // namespace silence

// Closed-loop CoS session between one sender and one receiver over a
// simulated link: SNR-based data-rate adaptation, control-message rate
// lookup, EVM-based subcarrier selection feedback, and the paper's
// fallback to the lowest control rate when feedback is lost.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/control_rate.h"
#include "core/cos_link.h"
#include "core/cos_profile.h"
#include "obs/obs.h"
#include "sim/link.h"

namespace silence {

struct SessionConfig {
  // The shared CoS profile. `profile.control_subcarriers` is the
  // bootstrap control set used before the first selection feedback
  // arrives (the paper's Fig. 10(a) block [10..17] by default).
  CosProfile profile;
  // Data-rate adaptation: when unset, the measured SNR picks the MCS.
  std::optional<int> fixed_rate_mbps;
  // Control-rate: when unset, the default lookup table is used.
  std::optional<int> control_rate_override;
  // Whether the receiver's EVM-based selection drives the next packet's
  // control subcarriers (the paper's design); when false the initial set
  // is kept forever (the "random placement" ablation uses this).
  bool use_selection_feedback = true;
  // PHY scratch for the receive chain; null means the thread's
  // default_phy_workspace(). Results do not depend on it. Transient
  // wiring, not a serialized setting; the owner must outlive the session.
  PhyWorkspace* workspace = nullptr;
};

struct PacketReport {
  bool data_ok = false;
  McsId mcs;  // data MCS this packet went out at
  double measured_snr_db = 0.0;
  std::size_t silences_sent = 0;
  std::size_t control_bits_sent = 0;
  std::size_t control_bits_correct = 0;  // matching prefix length
  bool control_ok = false;  // every sent control bit decoded correctly
  CosRxPacket rx;           // receiver-side diagnostics
};

class CosSession {
 public:
  CosSession(Link& link, const SessionConfig& config);

  // Transmits one data packet, embedding as much of `control_bits` as the
  // current control rate and grid allow, and advances the channel by the
  // packet airtime (back-to-back frame aggregation).
  PacketReport send_packet(std::span<const std::uint8_t> psdu,
                           std::span<const std::uint8_t> control_bits);

  const std::vector<int>& control_subcarriers() const {
    return control_subcarriers_;
  }
  bool have_feedback() const { return have_feedback_; }

 private:
  Link& link_;
  SessionConfig config_;
  std::vector<int> control_subcarriers_;
  bool have_feedback_ = false;
#if SILENCE_OBS_ON
  // Previous decoded round's EVM snapshot, for the health layer's
  // nabla-EVM drift series (paper Eq. 2 between feedback rounds). Held
  // on the heap: it is 384 B, and in a dense cell most sessions never
  // decode a packet.
  std::unique_ptr<SubcarrierEvm> prev_evm_;
#endif

  int desired_control_subcarriers(int silence_budget, int num_symbols) const;
};

}  // namespace silence

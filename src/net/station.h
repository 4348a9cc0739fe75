// One contending station of a net::Scenario: its own fading link to the
// AP, its own closed-loop CosSession, its own DCF backoff state and its
// own traffic source. All randomness comes from the station's private
// substreams of the scenario seed, so the scheduler never owns an RNG
// and station behaviour is independent of evaluation order.
#pragma once

#include <cstdint>

#include "mac/backoff.h"
#include "net/scenario.h"
#include "sim/link.h"
#include "sim/session.h"

namespace silence::net {

class Station {
 public:
  // `index` is the station's global position across the scenario's BSSs
  // (0-based); it selects the seed substreams. `snr_db` is the station's
  // measured-SNR placement (Topology::station_snr_db). `workspace` is
  // the session's PHY scratch and must outlive the station; NetSim shares
  // one across all stations, which is safe because frame exchanges are
  // processed strictly sequentially in event order even when their
  // simulated intervals overlap across BSSs.
  Station(const Scenario& scenario, int index, double snr_db,
          std::uint64_t seed, PhyWorkspace& workspace);

  // Outcome of one solo medium acquisition. The per-MPDU/control fields
  // let the scheduler narrate the exchange on the MAC timeline without
  // re-deriving them from the station's cumulative stats.
  struct TxOutcome {
    double data_airtime_us = 0.0;
    bool data_ok = false;
    std::size_t mpdus_sent = 0;
    std::size_t mpdus_delivered = 0;
    std::size_t data_bits = 0;  // payload bits delivered by this frame
    std::size_t control_bits_sent = 0;
    std::size_t control_bits_correct = 0;
  };

  // Builds this round's A-MPDU (fresh payloads + the next control
  // chunk), sends it through the CosSession and updates the station's
  // tallies and backoff. The session advances this station's own link
  // by the frame airtime. All other medium time reaches the link through
  // advance(): the scheduler replays its cell's logged fading steps, each
  // built once with its coefficients, before each read of this link
  // (NetSim::caught_up), and advances the SIFS+ACK tail after a won
  // exchange directly.
  // `interferer`, when set, injects pulse interference (OBSS overlap or
  // a hidden terminal's blind fire) into this one exchange; the link is
  // restored to interference-free afterwards. When unset, the RNG
  // streams are untouched relative to the interference-free path.
  TxOutcome transmit(const std::optional<PulseInterferer>& interferer);
  TxOutcome transmit() { return transmit(std::nullopt); }

  // This station collided this round: tally it and double the window.
  void on_collision();

  // Scheduler-computed latency samples (whole slots), recorded into the
  // station's deterministic stats at each winning TX start.
  void record_hol_wait(std::uint64_t slots) {
    stats_.hol_wait_slots.record(slots);
  }
  void record_tx_gap(std::uint64_t slots) {
    stats_.inter_tx_gap_slots.record(slots);
  }

  // Airtime its next PPDU would occupy, at the rate the session would
  // pick right now (which reads the link's measured SNR unless the rate
  // is fixed). Collisions are charged this much medium time without
  // running the PHY.
  double nominal_airtime_us() const;

  // Advances the fading process by `seconds` of medium time this
  // station did not spend transmitting its own frame, or by a logged
  // step built from any station's channel (they all share the
  // scenario's profile).
  void advance(double seconds) { link_.advance(seconds); }
  void advance(const FadingStep& step) { link_.advance(step); }

  const FadingChannel& channel() const { return link_.channel(); }

  Backoff& backoff() { return backoff_; }
  const Backoff& backoff() const { return backoff_; }
  Rng& rng() { return traffic_rng_; }
  const StaStats& stats() const { return stats_; }

 private:
  std::size_t mpdus_per_frame_;
  std::size_t mpdu_payload_octets_;
  std::size_t aggregate_octets_;  // constant: payload sizes never vary
  std::size_t control_bits_per_frame_;
  std::optional<int> fixed_rate_mbps_;
  std::uint8_t address_;
  std::uint16_t seq_ = 0;

  Rng traffic_rng_;
  Link link_;
  CosSession session_;
  Backoff backoff_;
  StaStats stats_;
};

}  // namespace silence::net

// A fully replayable CoS Monte-Carlo trial: the canonical "one packet
// through TX -> channel -> RX -> detection -> EVD decode" experiment the
// detection benches run, described by a JSON-round-trippable spec.
//
// Determinism contract: a trial's outcome is a pure function of
// (spec, seed) — the seed splits into a channel substream and a
// noise/payload substream exactly as the fig10 bench always did — so any
// trial can be re-run bit-exactly in isolation. The flight recorder
// (obs/flight/) leans on this: an anomaly dump stores the spec and seed,
// and `tools/silence_diag` replays it to identical RX bits and detector
// scores.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "channel/fading.h"
#include "channel/interference.h"
#include "core/cos_link.h"
#include "obs/flight/flight.h"
#include "runner/json.h"

namespace silence {

// Everything needed to reconstruct a trial. All fields serialize through
// to_json()/from_json(); from_json(to_json(spec)) == spec.
struct CosTrialSpec {
  double measured_snr_db = 10.0;  // NIC-measured SNR of the realization
  McsId mcs = McsId::for_rate(12);  // data MCS (serialized as rate_mbps)
  std::size_t psdu_octets = 256;
  std::size_t control_bits = 60;  // requested control-message length
  // Shared CoS profile: control subcarriers, interval width, detector
  // tuning, scrambler seed. `cos.detector.modulation` follows the MCS.
  CosProfile cos;
  MultipathProfile profile;
  std::optional<PulseInterferer> interferer;
  // Use the known frame geometry even when SIGNAL fails to decode (the
  // interference experiments' convention — heavy hits must not bias the
  // sample toward lightly-hit packets).
  bool ground_truth_framing = false;
  // Anomaly predicates evaluated by run_cos_trial against ground truth;
  // serialized so a replay re-arms the same triggers.
  bool dump_on_crc_fail = true;
  bool dump_on_control_miss = true;
  bool dump_on_false_alarm = true;

  runner::Json to_json() const;
  static CosTrialSpec from_json(const runner::Json& json);
};

// Per-cell detector confusion counts; mergeable across trials with +=.
struct DetectionCounts {
  std::size_t active = 0;
  std::size_t silent = 0;
  std::size_t false_pos = 0;
  std::size_t false_neg = 0;

  DetectionCounts& operator+=(const DetectionCounts& o) {
    active += o.active;
    silent += o.silent;
    false_pos += o.false_pos;
    false_neg += o.false_neg;
    return *this;
  }
  double positive_rate() const {
    return active ? static_cast<double>(false_pos) / active : 0.0;
  }
  double negative_rate() const {
    return silent ? static_cast<double>(false_neg) / silent : 0.0;
  }
};

// One simulated packet ready for detection experiments: the transmitted
// ground truth plus the receiver front end's view of it.
struct CosPacket {
  CosTxPacket tx;
  Bits control;  // requested control bits (sent prefix = tx.plan.bits_sent)
  FrontEndResult fe;
  bool usable = false;  // SIGNAL decoded (or ground truth supplied)
};

// Simulates one packet of `spec` at `seed` and runs the receiver front
// end. Deterministic in (spec, seed). The workspace overload reuses `ws`
// for all PHY scratch, keeping steady-state symbol work allocation-free.
CosPacket simulate_cos_packet(const CosTrialSpec& spec, std::uint64_t seed);
CosPacket simulate_cos_packet(const CosTrialSpec& spec, std::uint64_t seed,
                              PhyWorkspace& ws);

// Confusion counts of `detector` against the packet's true silence plan
// (empty counts when the packet is unusable or the symbol count
// mismatches after a SIGNAL mis-decode).
DetectionCounts count_detection(const CosPacket& packet,
                                std::span<const int> control_subcarriers,
                                const DetectorConfig& detector);

struct CosTrialResult {
  bool usable = false;
  bool crc_ok = false;
  DetectionCounts detection;
  std::size_t control_bits_sent = 0;
  std::size_t control_bits_recovered = 0;
  bool control_ok = false;  // recovered message == conveyed prefix
  Bits control_recovered;
  Bytes psdu;  // decoded PSDU (empty when decoding failed)
  SilenceMask detected_mask;
  std::string dump_path;  // flight artifact written this trial, "" if none

  // The outcome digest embedded into flight artifacts and compared by
  // silence_diag's replay check (RX bits as hex/bit strings, counts).
  runner::Json summary() const;
};

// Runs the full trial under whatever flight recording is already active
// on this thread (or none): detection, interval decode, EVD data decode,
// anomaly-predicate evaluation. Never routes dumps itself.
CosTrialResult run_cos_trial_recorded(const CosTrialSpec& spec,
                                      std::uint64_t seed);
CosTrialResult run_cos_trial_recorded(const CosTrialSpec& spec,
                                      std::uint64_t seed, PhyWorkspace& ws);

// The sweep-facing wrapper: when the global DumpRouter is armed (a bench
// ran with --flight-dir), records the trial and routes the artifact on an
// anomaly; otherwise just runs it. `label` names the sweep coordinates in
// the dump filename.
CosTrialResult run_cos_trial(const CosTrialSpec& spec,
                             const obs::flight::TrialLabel& label,
                             std::uint64_t seed);

}  // namespace silence

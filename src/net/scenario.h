// Network-scale CoS simulation: one or more APs, each terminating its
// stations' concurrent CoS sessions over independently-seeded fading
// links, with DCF contention and A-MPDU aggregation from src/mac/
// deciding who holds each BSS's medium. Each contention winner sends one
// aggregated data frame through its closed-loop CosSession, so the
// station's CoS control message rides on the frame for free — the
// network-level claim of the paper ("free control messages"), measured
// here as control goodput against the airtime DCF already spends, now
// under OBSS interference, hidden terminals and open-loop traffic.
//
// Determinism contract: run_scenario(scenario, seed) is a pure function.
// Every random stream — per-station channel realization, noise, traffic
// payloads, backoff draws, arrival processes — derives from `seed`
// through the SplitMix64 substream scheme (runner/seed.h), and the
// event-driven engine (net/engine.h) pops its calendar queue in a strict
// (timestamp, tie-break key, FIFO) total order. Sweeps parallelize
// across trials (bench/net_scenarios.cpp), never inside one scenario, so
// results are bit-identical at any runner thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/fading.h"
#include "core/cos_profile.h"
#include "net/topology.h"
#include "runner/json.h"

namespace silence::net {

// Everything needed to reconstruct a network run; round-trips through
// the strict JSON parser like CosTrialSpec, so scenario files and future
// flight artifacts replay bit-identically.
//
// The geometry (APs, channels, station SNR placement, carrier sensing)
// lives in `topology`, the offered load in `traffic` (net/topology.h);
// the remaining fields are the shared MAC/PHY/CoS knobs.
struct Scenario {
  Topology topology;
  TrafficModel traffic;
  // Per-MPDU payload octets (MAC header + FCS are added on top); the
  // winner aggregates up to `max_mpdus_per_frame` of these into one
  // PPDU, clamped to what the 4095-octet SIGNAL length field admits.
  std::size_t mpdu_octets = 400;
  int max_mpdus_per_frame = 4;
  // Simulated medium time per scenario run.
  double duration_us = 20e3;
  // CoS control bits each station offers per won frame (the session
  // truncates to the silence budget of that frame).
  std::size_t control_bits_per_frame = 48;
  // The shared CoS profile (core/cos_profile.h): control grid bootstrap,
  // interval width, detector tuning, scrambler seed.
  CosProfile cos;
  // Channel geometry shared by all stations; the *realization* differs
  // per station via its channel substream seed.
  MultipathProfile profile;
  // Data-rate adaptation: unset = closed-loop on measured SNR.
  std::optional<int> fixed_rate_mbps;
  // Whether receiver EVM selection feedback steers each session's
  // control subcarriers (the paper's design).
  bool use_selection_feedback = true;

  int num_stations() const { return topology.total_stations(); }

  // Strict-JSON round trip: from_json(to_json(s)) == s.
  runner::Json to_json() const;
  static Scenario from_json(const runner::Json& json);

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

// Where a run's medium time went. The five shares partition the elapsed
// time of a single-BSS run.
struct AirtimeBreakdown {
  double data_us = 0.0;
  double ack_us = 0.0;
  double control_us = 0.0;  // explicit control frames (none under DCF)
  double idle_us = 0.0;     // backoff slots + DIFS/SIFS gaps
  double collision_us = 0.0;

  double total_us() const {
    return data_us + ack_us + control_us + idle_us + collision_us;
  }
};

// Fixed-bucket histogram of slot-time latencies, carried inside the
// deterministic result itself (unlike obs histograms, these exist — and
// merge identically — with observability compiled out, so sweep JSONs
// stay byte-identical ON vs OFF). Buckets follow obs::histogram_bucket's
// power-of-two scheme; quantile() and to_json() go through the
// obs::HistogramSnapshot the registry's histograms use.
struct SlotHist {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets entries, or
                                       // empty while count == 0

  void record(std::uint64_t value);
  double mean() const;
  double quantile(double q) const;

  SlotHist& operator+=(const SlotHist& o);

  // obs::histogram_json: integers only, buckets trailing-zero trimmed.
  runner::Json to_json() const;

  friend bool operator==(const SlotHist&, const SlotHist&) = default;
};

// Per-station tallies; mergeable across trials with +=.
struct StaStats {
  std::size_t tx_rounds = 0;    // contention wins transmitted solo
  std::size_t collisions = 0;   // rounds this station collided in
  std::size_t frames_delivered = 0;  // aggregates whose data CRC passed
  std::size_t frames_lost = 0;       // solo wins the channel killed
  std::size_t mpdus_delivered = 0;   // subframes recovered end to end
  std::size_t data_bits = 0;         // payload bits of those subframes
  std::size_t control_bits_sent = 0;
  std::size_t control_bits_correct = 0;
  double data_airtime_us = 0.0;  // medium time under this station's PPDUs
  // Queueing view of the same run, in whole 9 µs slots: how long each
  // frame sat at the head of the line before its winning TX started
  // (collisions extend the wait, they don't reset it; under open-loop
  // traffic the clock starts when the frame reaches an empty queue), and
  // the spacing between consecutive winning TX starts.
  SlotHist hol_wait_slots;
  SlotHist inter_tx_gap_slots;

  StaStats& operator+=(const StaStats& o);
};

// The outcome of one scenario run (or the ordered merge of several
// trials of the same scenario).
struct NetResult {
  std::vector<StaStats> stations;
  AirtimeBreakdown airtime;
  double elapsed_us = 0.0;
  std::size_t contention_rounds = 0;
  std::size_t tx_rounds = 0;         // rounds with exactly one winner
  std::size_t collision_rounds = 0;  // rounds with two or more
  // Calendar-queue events the engine processed (a deterministic count:
  // the engine-throughput denominator in bench/net_scenarios.cpp).
  std::uint64_t events = 0;
  // Raw cross-BSS PPDU overlap witnessed by receivers, in µs (each
  // overlapping pair counts once per affected receiver). Zero on any
  // single-BSS topology.
  double obss_overlap_us = 0.0;

  // Merges another run of the SAME scenario shape (station counts must
  // match; an empty result adopts the other's). Trial merge order is
  // fixed by the runner's ordered reduction.
  NetResult& operator+=(const NetResult& o);

  // Sum of delivered payload bits over medium time.
  double aggregate_throughput_mbps() const;
  // Correctly received CoS control bits per millisecond of medium time —
  // the "free" control channel the network gets on top of the data.
  double control_goodput_kbps() const;
  // Fraction of medium time not carrying data payload (idle + collision
  // + ACK + explicit control). CoS keeps `airtime.control_us` at zero;
  // that is the point being measured.
  double airtime_overhead() const;
  // Jain fairness index over per-station delivered data bits; 1 = every
  // station got the same share, 1/N = one station took everything.
  double jain_fairness() const;
  double collision_rate() const;

  // Deterministic digest of the run (used by the determinism tests and
  // the bench's JSON rows).
  runner::Json to_json() const;
};

// Runs the event-driven DCF + CoS scenario for `scenario.duration_us` of
// medium time (a thin wrapper over net::NetSim; see net/engine.h for the
// stateful stepping API). Pure in (scenario, seed); see the determinism
// contract above. Throws std::invalid_argument on a malformed scenario.
NetResult run_scenario(const Scenario& scenario, std::uint64_t seed);

}  // namespace silence::net

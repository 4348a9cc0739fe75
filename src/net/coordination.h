// AP-coordinated uplink access — the paper's "access coordination"
// application, quantified.
//
// An AP runs a saturated downlink stream to N stations and wants to
// schedule their uplink transmissions without collisions. Three designs:
//
//  * kDcfContention — no coordination: the AP and the stations all
//    contend with DCF as one saturated net::Scenario BSS (collisions
//    waste airtime);
//  * kExplicitPoll — the AP transmits an explicit CF-POLL-style control
//    frame before each uplink grant (airtime cost per grant);
//  * kCosGrant — the grant rides for free inside the AP's next downlink
//    data frame as a CoS control message (zero extra airtime; a lost
//    grant just skips that uplink opportunity).
//
// The run reports throughput and the airtime spent on coordination,
// which is the quantity CoS eliminates.
#pragma once

#include <array>
#include <cstdint>

#include "net/scenario.h"

namespace silence {

// A grant names its station in 4 bits.
inline constexpr int kMaxCoordinatedStations = 16;

enum class CoordinationMode { kDcfContention, kExplicitPoll, kCosGrant };

struct CoordinationConfig {
  CoordinationMode mode = CoordinationMode::kCosGrant;
  int num_stations = 4;  // 1..kMaxCoordinatedStations
  std::size_t downlink_octets = 1024;
  std::size_t uplink_octets = 1024;
  double duration_us = 200e3;
  double measured_snr_db = 18.0;
  std::uint64_t seed = 1;
};

struct CoordinationResult {
  std::size_t downlink_bits = 0;
  std::size_t uplink_bits = 0;
  std::size_t grants_issued = 0;
  std::size_t grants_lost = 0;  // CoS grant not decoded -> uplink skipped
  net::AirtimeBreakdown airtime;
  double elapsed_us = 0.0;

  double total_throughput_mbps() const {
    return elapsed_us > 0.0
               ? static_cast<double>(downlink_bits + uplink_bits) /
                     elapsed_us
               : 0.0;
  }
  // Fraction of airtime spent on explicit coordination frames.
  double control_overhead() const {
    const double total = airtime.total_us();
    return total > 0.0 ? airtime.control_us / total : 0.0;
  }
};

// Throws std::invalid_argument unless 1 <= num_stations <=
// kMaxCoordinatedStations.
CoordinationResult run_coordination(const CoordinationConfig& config);

// The poll and grant modes' link seeds for `station` under `seed`:
// downlink channel, downlink noise, uplink channel, uplink noise. Each
// comes from its own family of substreams, so no two links of a run
// share a stream.
std::array<std::uint64_t, 4> coordination_link_seeds(std::uint64_t seed,
                                                     int station);

}  // namespace silence

// Quantifies the paper's motivation at the MAC layer: how much airtime
// explicit control messaging costs, and what CoS buys by making it free.
//
// Scenario: an AP runs a saturated downlink while coordinating uplink
// transmissions from N stations. Three designs are compared (see
// net/coordination.h): plain DCF contention, explicit poll frames, and
// CoS grants riding inside downlink data packets.
#include <cstdio>

#include "bench_util.h"
#include "net/coordination.h"

using namespace silence;

namespace {

void report(const char* name, const CoordinationResult& result) {
  std::printf(
      "%-14s thr %6.2f Mbps | down %5.2f up %5.2f | control %6.1f us "
      "(%4.1f%%) | idle %6.1f us | grants %zu lost %zu\n",
      name, result.total_throughput_mbps(),
      result.downlink_bits / result.elapsed_us,
      result.uplink_bits / result.elapsed_us, result.airtime.control_us,
      100.0 * result.control_overhead(), result.airtime.idle_us,
      result.grants_issued, result.grants_lost);
}

}  // namespace

int main() {
  bench::print_header(
      "MAC overhead",
      "coordination airtime: DCF vs explicit polls vs free CoS grants");

  for (int stations : {2, 4, 8}) {
    for (double snr : {14.0, 18.0, 24.0}) {
      std::printf("--- %d stations, measured SNR %.0f dB ---\n", stations,
                  snr);
      for (auto [mode, name] :
           {std::pair{CoordinationMode::kDcfContention, "DCF"},
            std::pair{CoordinationMode::kExplicitPoll, "explicit-poll"},
            std::pair{CoordinationMode::kCosGrant, "CoS-grant"}}) {
        CoordinationConfig config;
        config.mode = mode;
        config.num_stations = stations;
        config.duration_us = 150e3;
        config.measured_snr_db = snr;
        report(name, run_coordination(config));
      }
    }
  }
  std::printf(
      "\nReading: the explicit-poll design pays one basic-rate control\n"
      "frame per uplink grant; CoS delivers the same grant inside the\n"
      "downlink data for zero airtime, trading it for a small chance of\n"
      "a lost grant (skipped uplink slot). DCF pays in collisions.\n");
  return 0;
}

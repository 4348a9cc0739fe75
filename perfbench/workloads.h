// The benchmark's four workloads, each built from the workload seed, and
// the output checks every repetition runs.
//
// A repetition ("rep") is one complete use of the simulator as a user
// runs it: build the inputs and simulator state (set-up), run it, read
// the result. Every rep of a workload uses the same seed, so reps do
// identical work and must produce byte-identical results; the first rep
// is the reference the later ones are checked against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "channel/fading.h"

namespace perfbench {

// Output checks. Each call is one operation; an exception thrown by a
// rep counts as one failed operation.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // the first few, for the log
};

struct RepStats {
  double setup_s = 0.0;
  double run_s = 0.0;
  // Calibration kernel time around the rep (perfbench/calibrate.h).
  double calibration_s = 0.0;
  // Wall time of each fixed-length step_until slice, or of each trial.
  std::vector<double> slices_s;
  double sim_s = 0.0;   // simulated medium seconds covered by the run
  double packets = 0.0; // frames through the full CoS TX->channel->RX chain
  double goodput_mbps = 0.0;
  double ctrl_goodput_kbps = 0.0;
  double frame_loss_frac = 0.0;  // frames whose data CRC failed
  double ctrl_miss_frac = 0.0;   // control bits sent but not recovered
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t collision_rounds = 0;
  // The deterministic simulated result: NetResult::to_json(), or the
  // per-point sweep tallies.
  std::string digest;
};

struct Workload {
  std::string name;
  int threads = 1;   // threads of the run phase
  int stations = 0;  // 0 for the link-level sweep
  int bss = 0;       // BSSs the stations are spread over
  // Channel geometry and per-link SNRs, for the link set-up and fading
  // advance micro-measurements.
  silence::MultipathProfile profile;
  std::vector<double> link_snr_db;
  // Runs one rep. `reference` is the first rep (nullptr for the first
  // rep itself); `traced` reps skip checks that would run extra trials
  // inside the capture.
  std::function<RepStats(Checks&, const RepStats* reference, bool traced)>
      rep;
};

// Throws std::invalid_argument on an unknown name. `smoke` shrinks the
// simulated work to a minimum for the smoke test.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

// Mean cost of constructing one silence::Link at a measured SNR (the
// per-station channel set-up, dominated by the noise-variance bisection),
// in microseconds.
double link_setup_us(const Workload& w);

// Mean cost of one FadingChannel::advance, in nanoseconds.
double fading_advance_ns(const Workload& w);

}  // namespace perfbench

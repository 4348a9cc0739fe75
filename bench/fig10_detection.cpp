// Reproduces paper Fig. 10: accuracy of symbol-level energy detection.
//   (a) relative FFT magnitudes of one OFDM symbol with control
//       subcarriers [10..17], three of them silenced;
//   (b) false positive/negative probability vs detection threshold at a
//       measured SNR of 9.2 dB;
//   (c) false probabilities vs SNR with the adaptive (pilot-aided)
//       threshold, 1000 packets per point;
//   (d) false negative probability vs SNR with strong pulse interference.
//
// Runner-based: parts (b)-(d) fan individual packets across the thread
// pool as Monte-Carlo trials whose seeds derive from (base_seed, point,
// packet); per-packet detector counts merge with operator+=, so the
// false rates are bit-identical at any --threads value. The packet
// simulation itself is the canonical replayable trial from sim/trial.h —
// parts (b) and (d) run the full run_cos_trial() (detection + interval
// decode + EVD data decode), so `--flight-dir` captures any anomalous
// trial as a dump that tools/silence_diag replays bit-exactly; part (c)
// evaluates two detector variants against the SAME simulated packet and
// therefore shares simulate_cos_packet()/count_detection() directly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "channel/fading.h"
#include "channel/interference.h"
#include "core/cos_link.h"
#include "phy/ofdm.h"
#include "runner/sinks.h"
#include "runner/sweep.h"
#include "sim/link.h"
#include "sim/trial.h"

using namespace silence;

namespace {

const std::vector<int> kControl = {9, 10, 11, 12, 13, 14, 15, 16};

// LOS-dominant office profile matching the paper's lab links (their
// Fig. 5 EVM range implies no deep notches on the tested positions).
MultipathProfile office_profile() {
  MultipathProfile profile;
  profile.rician_k_linear = 10.0;
  profile.decay_taps = 1.5;
  return profile;
}

// The common packet layout of every Fig. 10 sweep; each part adjusts the
// SNR, detector and interferer on top.
CosTrialSpec base_spec(double measured_snr_db) {
  CosTrialSpec spec;
  spec.measured_snr_db = measured_snr_db;
  spec.mcs = McsId::for_rate(12);
  spec.psdu_octets = 256;
  spec.control_bits = 60;
  spec.cos.control_subcarriers = kControl;
  spec.profile = office_profile();
  return spec;
}

void part_a() {
  std::printf("(a) relative FFT magnitudes, control subcarriers [10..17]\n");
  Rng rng(5);
  MultipathProfile profile;
  FadingChannel channel(profile, 77);
  const double nv = noise_var_for_measured_snr(channel, 15.0);

  CosTxConfig tx_config;
  tx_config.mcs = McsId::for_rate(12);
  // Subcarriers 10, 11 and 17 silenced in the first symbol (paper's
  // figure): interval "0101" = 5 between positions 1 and 7.
  tx_config.control_subcarriers = {9, 10, 11, 12, 13, 14, 15, 16};
  const Bytes psdu = make_test_psdu(256, rng);
  const Bits control = {0, 0, 0, 0, 0, 1, 0, 1};  // intervals {0, 5}
  const CosTxPacket tx = cos_transmit(psdu, control, tx_config);
  const CxVec received = channel.transmit(tx.samples, nv, rng);
  const FrontEndResult fe = receiver_front_end(received);
  if (!fe.signal) {
    std::printf("  (SIGNAL failed; rerun)\n");
    return;
  }
  const auto energies = data_bin_energies(fe.data_bins.front());
  const double peak = *std::max_element(energies.begin(), energies.end());
  std::printf("%10s %12s %10s\n", "subcarrier", "rel_magn", "state");
  for (int j = 0; j < kNumDataSubcarriers; ++j) {
    const auto idx = static_cast<std::size_t>(j);
    const bool silenced = tx.plan.mask[0][idx] != 0;
    std::printf("%10d %12.3f %10s\n", j + 1,
                std::sqrt(energies[idx] / peak),
                silenced ? "silence" : "active");
  }
}

// Detector counts as a compact [active, silent, false_pos, false_neg]
// array: the layout of each part's `confusion_totals` grid entry.
runner::Json detection_to_json(const DetectionCounts& c) {
  runner::Json row = runner::Json::array();
  row.push_back(static_cast<std::int64_t>(c.active));
  row.push_back(static_cast<std::int64_t>(c.silent));
  row.push_back(static_cast<std::int64_t>(c.false_pos));
  row.push_back(static_cast<std::int64_t>(c.false_neg));
  return row;
}

runner::SweepReport part_b(const bench::BenchArgs& args) {
  const int packets = args.trials > 0 ? args.trials : 150;
  runner::SweepGrid<double> grid;  // points: threshold in dB
  grid.base_seed = runner::substream_seed(args.seed, 0xb);
  grid.trials = static_cast<std::size_t>(packets);
  for (double thr_db = -30.0; thr_db <= 10.0; thr_db += 2.5) {
    grid.points.push_back(thr_db);
  }

  const auto outcome = runner::run_sweep(
      grid, {.threads = args.threads, .chunk = 8},
      [&](const double& thr_db, const runner::TrialContext& ctx) {
        CosTrialSpec spec = base_spec(9.2);
        spec.cos.detector.fixed_threshold = std::pow(10.0, thr_db / 10.0);
        // Extreme thresholds make every trial "anomalous" by design;
        // only a CRC failure is worth a flight dump here.
        spec.dump_on_control_miss = false;
        spec.dump_on_false_alarm = false;
        return run_cos_trial(spec,
                             {.sweep = "fig10_detection.b",
                              .point_index = ctx.point_index,
                              .trial_index = ctx.trial_index},
                             ctx.seed)
            .detection;
      });

  runner::SweepReport report;
  report.bench = "fig10_detection.b";
  report.title = "Fig. 10(b)";
  report.description =
      "false probabilities vs detection threshold @ 9.2 dB measured";
  report.grid.set("measured_snr_db", 9.2);
  report.grid.set("packets_per_point", packets);
  report.grid.set("base_seed", static_cast<std::int64_t>(grid.base_seed));
  report.columns = {{"threshold_dB", 16, 1},
                    {"false_pos", 12, 4},
                    {"false_neg", 12, 4}};
  report.threads = outcome.threads;
  report.wall_seconds = outcome.wall_seconds;
  report.trials_run = outcome.trials_run;
  // Raw confusion totals (summed over every point) ride in the grid
  // metadata so the .health.json detector counters can be cross-checked
  // against the sweep's own tallies, count for count.
  DetectionCounts totals;
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const DetectionCounts& counts = outcome.point_results[i];
    totals += counts;
    report.add_row({grid.points[i], counts.positive_rate(),
                    counts.negative_rate()});
  }
  report.grid.set("confusion_totals", detection_to_json(totals));
  return report;
}

// Part (c) evaluates two adaptive-threshold variants on the SAME packets.
struct AdaptiveCounts {
  DetectionCounts noise_margin;
  DetectionCounts midpoint;
  AdaptiveCounts& operator+=(const AdaptiveCounts& o) {
    noise_margin += o.noise_margin;
    midpoint += o.midpoint;
    return *this;
  }
};

runner::SweepReport part_c(const bench::BenchArgs& args) {
  const int packets = args.trials > 0 ? args.trials : 1000;
  runner::SweepGrid<double> grid;  // points: measured SNR in dB
  grid.base_seed = runner::substream_seed(args.seed, 0xc);
  grid.trials = static_cast<std::size_t>(packets);
  grid.points = {3.2, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0};

  const auto outcome = runner::run_sweep(
      grid, {.threads = args.threads, .chunk = 16},
      [&](const double& snr, const runner::TrialContext& ctx) {
        const CosPacket packet =
            simulate_cos_packet(base_spec(snr), ctx.seed);
        DetectorConfig noise_margin;
        noise_margin.mode = ThresholdMode::kNoiseMargin;
        // This repo's per-subcarrier midpoint refinement, for comparison.
        DetectorConfig midpoint_config;
        midpoint_config.mode = ThresholdMode::kPerSubcarrierMidpoint;
        AdaptiveCounts counts;
        counts.noise_margin =
            count_detection(packet, kControl, noise_margin);
        counts.midpoint =
            count_detection(packet, kControl, midpoint_config);
        return counts;
      });

  runner::SweepReport report;
  report.bench = "fig10_detection.c";
  report.title = "Fig. 10(c)";
  report.description =
      "false probabilities vs SNR, adaptive pilot-aided threshold";
  report.grid.set("packets_per_point", packets);
  report.grid.set("base_seed", static_cast<std::int64_t>(grid.base_seed));
  report.columns = {{"measured_dB", 12, 1},
                    {"false_pos", 12, 4},
                    {"false_neg", 12, 4},
                    {"fp_midpoint", 12, 4},
                    {"fn_midpoint", 12, 4}};
  report.threads = outcome.threads;
  report.wall_seconds = outcome.wall_seconds;
  report.trials_run = outcome.trials_run;
  // Both detector variants score the same packets, and both evaluations
  // record into the health registry — so the cross-checkable total is
  // their sum.
  DetectionCounts totals;
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const AdaptiveCounts& counts = outcome.point_results[i];
    totals += counts.noise_margin;
    totals += counts.midpoint;
    report.add_row({grid.points[i], counts.noise_margin.positive_rate(),
                    counts.noise_margin.negative_rate(),
                    counts.midpoint.positive_rate(),
                    counts.midpoint.negative_rate()});
  }
  report.grid.set("confusion_totals", detection_to_json(totals));
  return report;
}

// Part (d) compares interfered vs clean detection on the SAME channel
// and noise realizations.
struct InterferenceCounts {
  DetectionCounts interfered;
  DetectionCounts clean;
  InterferenceCounts& operator+=(const InterferenceCounts& o) {
    interfered += o.interfered;
    clean += o.clean;
    return *this;
  }
};

runner::SweepReport part_d(const bench::BenchArgs& args) {
  const int packets = args.trials > 0 ? args.trials : 200;
  runner::SweepGrid<double> grid;  // points: measured SNR in dB
  grid.base_seed = runner::substream_seed(args.seed, 0xd);
  grid.trials = static_cast<std::size_t>(packets);
  grid.points = {3.2, 6.0, 10.0, 14.0, 18.0, 20.0};
  const PulseInterferer strong{.symbol_hit_probability = 0.6,
                               .pulse_power = 1.0};

  const auto outcome = runner::run_sweep(
      grid, {.threads = args.threads, .chunk = 8},
      [&](const double& snr, const runner::TrialContext& ctx) {
        CosTrialSpec interfered = base_spec(snr);
        interfered.ground_truth_framing = true;
        interfered.interferer = strong;
        // Interference at low SNR misses control messages by design;
        // dump only on the rarer CRC/false-alarm anomalies.
        interfered.dump_on_control_miss = false;
        CosTrialSpec clean = base_spec(snr);
        clean.ground_truth_framing = true;
        InterferenceCounts counts;
        counts.interfered = run_cos_trial(interfered,
                                          {.sweep = "fig10_detection.d",
                                           .point_index = ctx.point_index,
                                           .trial_index = ctx.trial_index},
                                          ctx.seed)
                                .detection;
        counts.clean = count_detection(simulate_cos_packet(clean, ctx.seed),
                                       kControl, DetectorConfig{});
        return counts;
      });

  runner::SweepReport report;
  report.bench = "fig10_detection.d";
  report.title = "Fig. 10(d)";
  report.description = "false negative vs SNR with strong pulse interference";
  report.grid.set("packets_per_point", packets);
  report.grid.set("symbol_hit_probability", strong.symbol_hit_probability);
  report.grid.set("base_seed", static_cast<std::int64_t>(grid.base_seed));
  report.columns = {{"measured_dB", 12, 1},
                    {"fn_interf", 14, 4},
                    {"fn_clean", 14, 4}};
  report.threads = outcome.threads;
  report.wall_seconds = outcome.wall_seconds;
  report.trials_run = outcome.trials_run;
  // Interfered and clean runs of the same realization both record.
  DetectionCounts totals;
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const InterferenceCounts& counts = outcome.point_results[i];
    totals += counts.interfered;
    totals += counts.clean;
    report.add_row({grid.points[i], counts.interfered.negative_rate(),
                    counts.clean.negative_rate()});
  }
  report.grid.set("confusion_totals", detection_to_json(totals));
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "fig10_detection");
  bench::print_header("Fig. 10", "silence-symbol detection accuracy");
  part_a();

  const runner::SweepReport b = part_b(args);
  const runner::SweepReport c = part_c(args);
  const runner::SweepReport d = part_d(args);
  runner::TableSink table;
  table.write(b);
  table.write(c);
  table.write(d);
  std::printf(
      "\nPaper shape: (a) silenced subcarriers are clearly discernible;\n"
      "(b) high thresholds inflate false positives, low thresholds\n"
      "inflate false negatives; (c) with the adaptive threshold the\n"
      "false negative rate stays < 0.01 and the false positive rate only\n"
      "rises at very low SNR (~0.14 at 3.2 dB); (d) strong interference\n"
      "drives the false negative rate up dramatically.\n");

  if (args.json) {
    // The three sweeps share one result file: a "parts" array of the
    // standard per-sweep payloads.
    runner::Json root = runner::Json::object();
    root.set("bench", "fig10_detection");
    root.set("schema_version", 1);
    runner::Json parts = runner::Json::array();
    parts.push_back(runner::JsonSink::payload(b));
    parts.push_back(runner::JsonSink::payload(c));
    parts.push_back(runner::JsonSink::payload(d));
    root.set("parts", std::move(parts));
    runner::write_json_file(args.json_path, root);
    runner::write_sidecars(args.json_path, "fig10_detection", b.threads,
                           b.trials_run + c.trials_run + d.trials_run,
                           b.wall_seconds + c.wall_seconds + d.wall_seconds);
  }
  bench::finish_observability(args);
  return 0;
}

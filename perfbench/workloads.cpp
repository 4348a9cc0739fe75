#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "mac/timing.h"
#include "net/engine.h"
#include "obs/trace.h"
#include "runner/seed.h"
#include "runner/sweep.h"
#include "sim/link.h"
#include "sim/trial.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using silence::obs::Tracer;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


// --- Network workloads ---------------------------------------------------

struct NetSetup {
  silence::net::Scenario scenario;
  std::uint64_t seed = 1;
  double slice_us = 10e3;  // simulated length of one step_until slice
};

// One saturated BSS with the default 4 x 400-octet A-MPDU.
silence::net::Scenario one_bss(int stations, double duration_us) {
  silence::net::Scenario s;
  s.topology.bss = {{.channel = 36, .num_stations = stations}};
  s.duration_us = duration_us;
  return s;
}

// Six 8-station BSSs: two co-channel pairs one channel apart from each
// other (36/36, 37/37) and two isolated cells (40, 44). Poisson open-loop
// traffic of single ~100-octet MPDUs.
silence::net::Scenario obss6(double duration_us) {
  silence::net::Scenario s;
  s.topology.bss.clear();
  for (const int channel : {36, 36, 37, 37, 40, 44}) {
    s.topology.bss.push_back({.channel = channel, .num_stations = 8});
  }
  s.traffic.kind = silence::net::TrafficModel::Kind::kPoisson;
  s.traffic.arrival_rate_fps = 150.0;
  s.mpdu_octets = 100;
  s.max_mpdus_per_frame = 1;
  s.duration_us = duration_us;
  return s;
}

void check_net_result(const silence::net::NetResult& r,
                      std::uint64_t events_processed, bool single_bss,
                      Checks& checks) {
  checks.expect(r.events == events_processed,
                "NetResult.events equals the engine's event count");
  checks.expect(
      r.contention_rounds == r.tx_rounds + r.collision_rounds,
      "every contention round is a solo transmission or a collision");
  std::size_t tx = 0, outcomes = 0, collisions = 0;
  double data_us = 0.0;
  bool control_ok = true;
  for (const silence::net::StaStats& s : r.stations) {
    tx += s.tx_rounds;
    outcomes += s.frames_delivered + s.frames_lost;
    collisions += s.collisions;
    data_us += s.data_airtime_us;
    control_ok = control_ok && s.control_bits_correct <= s.control_bits_sent;
  }
  checks.expect(tx == r.tx_rounds && outcomes == r.tx_rounds,
                "per-station tx_rounds and frame outcomes sum to "
                "NetResult.tx_rounds");
  checks.expect(collisions >= 2 * r.collision_rounds,
                "per-station collisions cover every collision round");
  checks.expect(std::abs(data_us - r.airtime.data_us) <=
                    1e-9 * std::max(1.0, r.airtime.data_us),
                "per-station data airtime sums to the airtime breakdown");
  checks.expect(control_ok, "no station recovers more control bits than "
                            "it sent");
  if (single_bss) {
    checks.expect(r.airtime.total_us() == r.elapsed_us,
                  "single-BSS airtime breakdown sums exactly to elapsed");
  }
}

RepStats net_rep(const NetSetup& setup, Checks& checks,
                 const RepStats* reference) {
  Tracer& tracer = Tracer::global();
  RepStats st;
  const Clock::time_point t0 = Clock::now();
  tracer.span_begin("net.init");
  silence::net::NetSim sim;
  sim.init(setup.scenario, setup.seed);
  tracer.span_end("net.init");
  st.setup_s = since(t0);

  const Clock::time_point t1 = Clock::now();
  // step_until past the horizon finishes the run; the bound only guards
  // the loop against a run that never reports done().
  const double last = setup.scenario.duration_us + 1e6;
  for (double t = setup.slice_us; !sim.done() && t <= last;
       t += setup.slice_us) {
    const Clock::time_point s0 = Clock::now();
    tracer.span_begin("net.run");
    sim.step_until(t);
    tracer.span_end("net.run");
    st.slices_s.push_back(since(s0));
  }
  tracer.span_begin("net.result");
  const silence::net::NetResult r = sim.result();
  tracer.span_end("net.result");
  st.run_s = since(t1);

  std::size_t lost = 0, ctrl_sent = 0, ctrl_ok = 0;
  for (const silence::net::StaStats& s : r.stations) {
    lost += s.frames_lost;
    ctrl_sent += s.control_bits_sent;
    ctrl_ok += s.control_bits_correct;
  }
  st.sim_s = 1e-6 * r.elapsed_us;
  st.packets = static_cast<double>(r.tx_rounds);
  st.goodput_mbps = r.aggregate_throughput_mbps();
  st.ctrl_goodput_kbps = r.control_goodput_kbps();
  st.frame_loss_frac =
      r.tx_rounds ? static_cast<double>(lost) / r.tx_rounds : 0.0;
  st.ctrl_miss_frac =
      ctrl_sent ? 1.0 - static_cast<double>(ctrl_ok) / ctrl_sent : 0.0;
  st.events = r.events;
  st.rounds = r.contention_rounds;
  st.collision_rounds = r.collision_rounds;
  st.digest = r.to_json().dump_compact();

  check_net_result(r, sim.events_processed(),
                   setup.scenario.topology.bss.size() == 1, checks);
  checks.expect(r.tx_rounds > 0, "the run delivered frames through the PHY");
  if (reference != nullptr) {
    checks.expect(st.digest == reference->digest,
                  "NetResult is byte-identical to the first rep's");
  }
  return st;
}

Workload net_workload(const std::string& name, silence::net::Scenario sc,
                      std::uint64_t seed, double slice_us) {
  Workload w;
  w.name = name;
  w.stations = sc.num_stations();
  w.bss = static_cast<int>(sc.topology.bss.size());
  w.profile = sc.profile;
  for (int i = 0; i < w.stations; ++i) {
    w.link_snr_db.push_back(sc.topology.station_snr_db(i));
  }
  const NetSetup setup{std::move(sc), seed, slice_us};
  w.rep = [setup](Checks& checks, const RepStats* reference, bool) {
    return net_rep(setup, checks, reference);
  };
  return w;
}

// --- Link-level sweep (paper Fig. 10) -----------------------------------

// The Fig. 10 trial layout (bench/fig10_detection.cpp): 256-octet PSDU at
// 12 Mb/s, a 60-bit control message on data subcarriers 9..16, and a
// LOS-dominant office channel.
silence::CosTrialSpec fig10_spec(double measured_snr_db) {
  silence::CosTrialSpec spec;
  spec.measured_snr_db = measured_snr_db;
  spec.mcs = silence::McsId::for_rate(12);
  spec.psdu_octets = 256;
  spec.control_bits = 60;
  spec.cos.control_subcarriers = {9, 10, 11, 12, 13, 14, 15, 16};
  spec.profile.rician_k_linear = 10.0;
  spec.profile.decay_taps = 1.5;
  return spec;
}

// Per-point sweep tallies, merged in trial order by the runner.
struct SweepTally {
  std::size_t trials = 0;
  std::size_t usable = 0;
  std::size_t crc_ok = 0;
  std::size_t ctrl_sent = 0;
  std::size_t ctrl_delivered = 0;  // bits of control messages fully recovered
  silence::DetectionCounts detection;

  SweepTally& operator+=(const SweepTally& o) {
    trials += o.trials;
    usable += o.usable;
    crc_ok += o.crc_ok;
    ctrl_sent += o.ctrl_sent;
    ctrl_delivered += o.ctrl_delivered;
    detection += o.detection;
    return *this;
  }
};

struct SweepSetup {
  std::vector<double> snr_db;
  std::size_t trials = 1;
  std::uint64_t seed = 1;
  int threads = 1;
};

// Every kSampleEvery-th trial is re-run on the calling thread and must
// reproduce the parallel run's CosTrialResult::summary().
constexpr std::size_t kSampleEvery = 25;

silence::CosTrialResult trial(double snr_db, std::size_t point,
                              std::size_t index, std::uint64_t seed) {
  Tracer& tracer = Tracer::global();
  tracer.span_begin("sim.trial");
  silence::CosTrialResult r = silence::run_cos_trial(
      fig10_spec(snr_db),
      {.sweep = "perfbench.fig10", .point_index = point, .trial_index = index},
      seed);
  tracer.span_end("sim.trial");
  return r;
}

RepStats sweep_rep(const SweepSetup& setup, Checks& checks,
                   const RepStats* reference, bool traced) {
  Tracer& tracer = Tracer::global();
  RepStats st;
  const Clock::time_point t0 = Clock::now();
  tracer.span_begin("runner.setup");
  silence::runner::SweepGrid<double> grid;
  grid.points = setup.snr_db;
  grid.trials = setup.trials;
  grid.base_seed = silence::runner::substream_seed(setup.seed, 0xf10);
  // Warm-up trial: the grid's first trial, on this thread.
  trial(grid.points.front(), 0, 0,
        silence::runner::trial_seed(grid.base_seed, 0, 0));
  tracer.span_end("runner.setup");
  st.setup_s = since(t0);

  const std::size_t total = grid.points.size() * grid.trials;
  std::vector<double> trial_s(total, 0.0);
  std::vector<std::string> sampled(total);
  const Clock::time_point t1 = Clock::now();
  const auto outcome = silence::runner::run_sweep(
      grid, {.threads = setup.threads, .chunk = 4},
      [&](const double& snr, const silence::runner::TrialContext& ctx) {
        const Clock::time_point s0 = Clock::now();
        const silence::CosTrialResult r =
            trial(snr, ctx.point_index, ctx.trial_index, ctx.seed);
        const std::size_t i = ctx.point_index * grid.trials + ctx.trial_index;
        if (i % kSampleEvery == 0) sampled[i] = r.summary().dump_compact();
        SweepTally t;
        t.trials = 1;
        t.usable = r.usable;
        t.crc_ok = r.crc_ok;
        t.ctrl_sent = r.control_bits_sent;
        t.ctrl_delivered = r.control_ok ? r.control_bits_sent : 0;
        t.detection = r.detection;
        trial_s[i] = since(s0);
        return t;
      });
  st.run_s = since(t1);
  st.slices_s = std::move(trial_s);

  const double airtime_us =
      silence::psdu_airtime_us(256, *silence::McsId::for_rate(12));
  SweepTally all;
  silence::runner::Json points = silence::runner::Json::array();
  for (std::size_t p = 0; p < outcome.point_results.size(); ++p) {
    const SweepTally& t = outcome.point_results[p];
    all += t;
    checks.expect(t.trials == grid.trials, "every sweep trial merged");
    checks.expect(t.detection.false_pos <= t.detection.active &&
                      t.detection.false_neg <= t.detection.silent,
                  "detector confusion counts are consistent");
    silence::runner::Json row = silence::runner::Json::object();
    row.set("measured_snr_db", grid.points[p]);
    row.set("trials", t.trials);
    row.set("usable", t.usable);
    row.set("crc_ok", t.crc_ok);
    row.set("ctrl_sent", t.ctrl_sent);
    row.set("ctrl_delivered", t.ctrl_delivered);
    row.set("active", t.detection.active);
    row.set("silent", t.detection.silent);
    row.set("false_pos", t.detection.false_pos);
    row.set("false_neg", t.detection.false_neg);
    points.push_back(std::move(row));
  }
  const double sim_us = airtime_us * static_cast<double>(all.trials);
  st.sim_s = 1e-6 * sim_us;
  st.packets = static_cast<double>(all.trials);
  st.goodput_mbps = 8.0 * 256.0 * static_cast<double>(all.crc_ok) / sim_us;
  st.ctrl_goodput_kbps =
      static_cast<double>(all.ctrl_delivered) / (1e-3 * sim_us);
  st.frame_loss_frac =
      1.0 - static_cast<double>(all.crc_ok) / static_cast<double>(all.trials);
  st.ctrl_miss_frac =
      all.ctrl_sent ? 1.0 - static_cast<double>(all.ctrl_delivered) /
                                static_cast<double>(all.ctrl_sent)
                    : 0.0;
  st.digest = points.dump_compact();

  checks.expect(all.crc_ok > 0, "the sweep decoded frames");
  if (reference != nullptr) {
    checks.expect(st.digest == reference->digest,
                  "sweep tallies are byte-identical to the first rep's");
  }
  if (!traced) {
    for (std::size_t i = 0; i < total; i += kSampleEvery) {
      const std::size_t p = i / grid.trials;
      const std::size_t k = i % grid.trials;
      const silence::CosTrialResult again = silence::run_cos_trial_recorded(
          fig10_spec(grid.points[p]),
          silence::runner::trial_seed(grid.base_seed, p, k));
      checks.expect(again.summary().dump_compact() == sampled[i],
                    "a trial re-run on one thread reproduces its summary");
    }
  }
  return st;
}

Workload sweep_workload(SweepSetup setup) {
  Workload w;
  w.name = "fig10_sweep";
  w.threads = setup.threads;
  w.profile = fig10_spec(0.0).profile;
  w.link_snr_db = setup.snr_db;
  w.rep = [setup](Checks& checks, const RepStats* reference, bool traced) {
    return sweep_rep(setup, checks, reference, traced);
  };
  return w;
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "cell16_saturated") {
    // A fixed 24 Mb/s: every frame costs the PHY the same whatever channel
    // the seed draws.
    silence::net::Scenario sc = one_bss(16, smoke ? 5e3 : 250e3);
    sc.fixed_rate_mbps = 24;
    return net_workload(name, std::move(sc), seed, 10e3);
  }
  if (name == "dense1024_saturated") {
    // 20 ms slices: about two PHY frames each among the collisions.
    return net_workload(name, one_bss(1024, smoke ? 2e3 : 600e3), seed,
                        20e3);
  }
  if (name == "obss6_poisson_small") {
    return net_workload(name, obss6(smoke ? 20e3 : 200e3), seed, 10e3);
  }
  if (name == "fig10_sweep") {
    const unsigned hw = std::thread::hardware_concurrency();
    return sweep_workload({.snr_db = {3.2, 6.0, 10.0, 14.0, 18.0, 20.0},
                           .trials = smoke ? 2u : 50u,
                           .seed = seed,
                           .threads = hw >= 2 ? 2 : 1});
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double link_setup_us(const Workload& w) {
  // 64 links (tens of ms), cycling through the workload's SNR placements.
  constexpr int kLinks = 64;
  silence::LinkConfig config;
  config.profile = w.profile;
  config.snr_is_measured = true;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kLinks; ++i) {
    config.channel_seed = silence::runner::substream_seed(1, 0x100 + i);
    config.noise_seed = silence::runner::substream_seed(1, 0x200 + i);
    config.snr_db = w.link_snr_db[static_cast<std::size_t>(i) %
                                  w.link_snr_db.size()];
    const silence::Link link(config);
  }
  return 1e6 * since(t0) / kLinks;
}

double fading_advance_ns(const Workload& w) {
  // One DCF round of a saturated cell is a few hundred µs of medium time.
  constexpr int kCalls = 5000;
  silence::FadingChannel channel(w.profile, 7);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) channel.advance(300e-6);
  return 1e9 * since(t0) / kCalls;
}

}  // namespace perfbench

// Wall-clock benchmark of the simulator: runs one workload for a fixed
// wall time and prints its metrics, by name and unit, with the final
// stdout line one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--git-sha SHA] [--src-digest HEX] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced reps: the traced reps capture every span
// (perfbench/spans.h) and give the per-layer metrics, the untraced ones
// the tracing overhead. End-to-end timings are each rep's wall times
// scaled to the reference machine speed that a calibration kernel around
// the rep measures (perfbench/calibrate.h); the raw_* metrics print them
// unscaled. python3 perfbench/run.py builds and runs this.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "calibrate.h"
#include "obs/obs.h"
#include "runner/json.h"
#include "spans.h"
#include "workloads.h"

using silence::runner::Json;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string out_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--git-sha SHA] "
               "[--src-digest HEX] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--src-digest") {
      a.src_digest = value;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s;
#else
  return "unknown";
#endif
}

Json build_context(const Args& a, int threads) {
  Json c = Json::object();
  c.set("cpu", cpu_model());
  c.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  c.set("run_threads", threads);
  c.set("build_type", PERFBENCH_BUILD_TYPE);
  c.set("silence_obs", SILENCE_OBS_ON != 0);
  c.set("silence_native", PERFBENCH_NATIVE != 0);
  c.set("git_sha", a.git_sha);
  c.set("src_digest", a.src_digest);
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Multiplies a rep's wall times to give them at the reference machine
// speed: below 1 when the machine ran slower than the reference.
double speed_factor(const RepStats& r) {
  return kCalibrationRefS / r.calibration_s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Cost of one OBS_SPAN scope (registry histogram plus trace events) with
// the tracer active, in seconds.
double span_cost_s() {
  constexpr int kSpans = 20000;
  capture_begin();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    OBS_SPAN("perfbench.calibrate");
  }
  const double s =
      std::chrono::duration<double>(Clock::now() - t0).count() / kSpans;
  capture_end();
  return s;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Listed in BENCHMARK.json and so in the JSON result. The others are
  // printed only: see perfbench/README.md for why each is left out.
  bool listed = true;
};

struct Layer {
  std::string name;
  double s = 0.0;  // seconds per rep
};

struct TraceSummary {
  std::vector<Metric> metrics;
  std::vector<Layer> layers;
  double total_s = 0.0;         // per rep: set-up + threads x run
  double unattributed_s = 0.0;  // per rep: covered by no layer
};

// Per-layer metrics and the layer table, averaged over the traced reps.
TraceSummary summarize_trace(const Workload& w, const RepStats& ref,
                             const std::vector<RepStats>& untraced,
                             const std::vector<RepStats>& traced,
                             const SpanProfile& profile, double link_us,
                             double advance_ns, double span_s) {
  TraceSummary t;
  const double n = static_cast<double>(traced.size());
  const SpanProfile& p = profile;
  std::vector<double> traced_wall, untraced_wall;
  double setup = 0.0, run = 0.0, capacity = 0.0;
  for (const RepStats& r : traced) {
    traced_wall.push_back(speed_factor(r) * (r.setup_s + r.run_s));
    setup += r.setup_s;
    run += r.run_s;
    capacity += r.setup_s + w.threads * r.run_s;
  }
  for (const RepStats& r : untraced) {
    untraced_wall.push_back(speed_factor(r) * (r.setup_s + r.run_s));
  }
  t.total_s = capacity / n;

  // Layers: self time by span-name prefix. Runner workers idle between
  // trials (pool start, load imbalance) is the runner's.
  double idle = 0.0;
  if (w.threads > 1) {
    idle = std::max(0.0, (capacity - setup) - p.other_covered_s);
  }
  double net_init = p.self("net.init"), net_run = p.self_prefix("net.") -
                                                 net_init,
         channel = p.self_prefix("chan."), sim = p.self_prefix("sim."),
         core = p.self_prefix("cos."), phy = p.self_prefix("phy."),
         runner = p.self_prefix("runner.") + idle;
  const auto move = [](double& from, double& to, double amount) {
    amount = std::min(from, amount);
    from -= amount;
    to += amount;
  };
  // Modelled splits, from the micro-measured unit costs:
  //  - per-station channel set-up (a Link's noise-variance bisection)
  //    runs inside NetSim::init and inside every trial;
  //  - the engine advances every member's fading channel twice per DCF
  //    round (backoff expiry, then the exchange or collision) and the
  //    winner's once more: 2 N rounds + tx_rounds calls, exact for one
  //    saturated BSS and taken per BSS of equal size otherwise.
  if (w.stations > 0) {
    move(net_init, channel, 1e-6 * link_us * w.stations * n);
    const double calls = 2.0 * w.stations / w.bss * ref.rounds + ref.packets;
    move(net_run, channel, 1e-9 * advance_ns * calls * n);
  } else {
    move(sim, channel,
         1e-6 * link_us * static_cast<double>(p.count_prefix("sim.trial")));
  }
  double net = net_init + net_run;
  // Modelled split: every span recorded costs span_s of registry and
  // trace bookkeeping, moved from its layer into obs.
  double obs = 0.0;
  const auto spans = [&](std::string_view prefix) {
    return span_s * static_cast<double>(p.count_prefix(prefix));
  };
  move(net, obs, spans("net."));
  move(channel, obs, spans("chan."));
  move(sim, obs, spans("sim."));
  move(core, obs, spans("cos."));
  move(phy, obs, spans("phy."));
  move(runner, obs, spans("runner."));
  t.layers = {{"net", net / n},       {"channel", channel / n},
              {"sim", sim / n},       {"core", core / n},
              {"phy", phy / n},       {"runner", runner / n},
              {"obs", obs / n}};
  t.unattributed_s = t.total_s;
  for (const Layer& l : t.layers) t.unattributed_s -= l.s;

  const bool is_net = w.stations > 0;
  const double trial_s = p.incl("runner.trial") / n;
  const double per_rep_run = run / n;
  auto& m = t.metrics;
  m.push_back({"net.init_us_per_station",
               is_net ? 1e6 * (setup / n) / w.stations : 0.0, "us"});
  m.push_back({"channel.link_setup_us", link_us, "us"});
  m.push_back({"net.self_s",
               (p.self("net.run") + p.self("net.result")) / n, "s"});
  m.push_back({"channel.advance_ns", is_net ? advance_ns : 0.0, "ns"});
  m.push_back({"net.events", static_cast<double>(ref.events), "count"});
  m.push_back({"net.rounds", static_cast<double>(ref.rounds), "count"});
  m.push_back({"net.collision_rounds",
               static_cast<double>(ref.collision_rounds), "count"});
  m.push_back({"phy.rx.frontend_s", p.incl("phy.rx.frontend") / n, "s"});
  m.push_back({"phy.rx.viterbi_s", p.incl("phy.rx.viterbi") / n, "s"});
  m.push_back({"phy.rx.equalize_demap_s",
               (p.incl("phy.rx.equalize") + p.incl("phy.rx.demap")) / n, "s"});
  m.push_back({"phy.rx_s", p.self_prefix("phy.rx.") / n, "s"});
  m.push_back({"phy.tx_s", p.self_prefix("phy.tx.") / n, "s"});
  m.push_back({"cos.rx_self_s", p.self("cos.rx") / n, "s"});
  m.push_back({"cos.tx_self_s", p.self("cos.tx") / n, "s"});
  m.push_back({"cos.detect_s", p.incl("cos.detect") / n, "s"});
  m.push_back({"cos.rx.intervals_s", p.incl("cos.rx.intervals") / n, "s"});
  m.push_back({"cos.rx.evm_s", p.self("cos.rx.evm") / n, "s"});
  m.push_back({"chan.apply_s", p.incl("chan.apply") / n, "s"});
  m.push_back({"sim.link.send_self_s", p.self("sim.link.send") / n, "s"});
  m.push_back({"phy.frame_loss_frac", ref.frame_loss_frac, "ratio"});
  m.push_back({"cos.ctrl_miss_frac", ref.ctrl_miss_frac, "ratio"});
  m.push_back({"runner.trial_s", trial_s, "s"});
  m.push_back({"runner.utilization",
               per_rep_run > 0.0 ? trial_s / (per_rep_run * w.threads) : 0.0,
               "ratio"});
  m.push_back({"obs.trace_overhead_frac",
               median(traced_wall) / median(untraced_wall) - 1.0, "ratio"});
  m.push_back({"unattributed_frac",
               t.total_s > 0.0 ? t.unattributed_s / t.total_s : 0.0, "ratio"});
  for (const Layer& l : t.layers) {
    m.push_back({"layer." + l.name + "_s", l.s, "s"});
  }
  return t;
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics) {
    if (!m.listed) continue;
    Json v = Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    out.set(m.name, std::move(v));
  }
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.listed ? "" : "  (printed only)");
  }
}

// Runs one rep; an exception counts as one failed check. A traced rep's
// span profile is added to `profile`.
bool run_rep(const Workload& w, Checks& checks, const RepStats* reference,
             bool traced, RepStats& out, SpanProfile& profile) {
  bool ok = false;
  if (traced) capture_begin();
  try {
    out = w.rep(checks, reference, traced);
    ok = true;
  } catch (const std::exception& e) {
    checks.expect(false, std::string("exception: ") + e.what());
  } catch (...) {
    checks.expect(false, "unknown exception");
  }
  if (traced) {
    const SpanProfile p = capture_end();
    checks.expect(p.dropped_events == 0,
                  "the trace capture kept every span event");
    if (ok) profile += p;
  }
  return ok;
}

int run(const Args& args) {
  calibration_s();  // allocates its buffers before the simulator's
  const Workload w = make_workload(args.workload, args.seed, args.smoke);
  const Json context = build_context(args, w.threads);
  std::printf("perfbench context %s\n", context.dump_compact().c_str());
  std::printf("perfbench workload %s seed %llu seconds %g trace %d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::fflush(stdout);

  Checks checks;
  SpanProfile profile;

  // First rep: warms caches and lazy set-up, and is the reference every
  // later rep's result must reproduce byte for byte.
  RepStats reference;
  if (!run_rep(w, checks, nullptr, false, reference, profile)) {
    std::fprintf(stderr, "perfbench: the first rep failed: %s\n",
                 checks.failures().front().c_str());
    return 1;
  }

  std::vector<RepStats> untraced, traced;
  // Micro-measurements and the span-cost calibration, taken before each
  // traced rep (outside its timed region) so that they sample the same
  // stretch of machine speed as the reps; the medians are reported.
  std::vector<double> link_us, advance_ns, span_s;
  const std::size_t kMinReps = 2;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool want_trace = args.trace && i % 2 == 1;
    const bool enough =
        untraced.size() >= kMinReps && (!args.trace || traced.size() >= kMinReps);
    if (enough && std::chrono::duration<double>(Clock::now() - start).count() >=
                      args.seconds) {
      break;
    }
    if (want_trace) {
      link_us.push_back(link_setup_us(w));
      advance_ns.push_back(fading_advance_ns(w));
      span_s.push_back(span_cost_s());
    }
    RepStats st;
    // The calibration kernel brackets the rep: it measures the machine's
    // speed over the same stretch (perfbench/calibrate.h).
    const double cal_before = calibration_s();
    if (!run_rep(w, checks, &reference, want_trace, st, profile)) {
      // A rep that throws gives no timings; give up after a few.
      if (checks.failed() > 4) break;
      continue;
    }
    st.calibration_s = 0.5 * (cal_before + calibration_s());
    (want_trace ? traced : untraced).push_back(std::move(st));
  }

  const bool have_reps =
      !untraced.empty() && (!args.trace || !traced.empty());
  std::vector<Metric> end_to_end;
  TraceSummary trace;
  if (have_reps) {
    // Timings are scaled rep by rep to the reference machine speed; the
    // raw_* metrics are the same medians unscaled.
    std::vector<double> setup, wall, run, slices, raw_setup, raw_wall,
        raw_run, speed;
    for (const RepStats& r : untraced) {
      const double k = speed_factor(r);
      setup.push_back(k * r.setup_s);
      run.push_back(k * r.run_s);
      wall.push_back(k * (r.setup_s + r.run_s));
      for (const double s : r.slices_s) slices.push_back(k * s);
      raw_setup.push_back(r.setup_s);
      raw_run.push_back(r.run_s);
      raw_wall.push_back(r.setup_s + r.run_s);
      speed.push_back(k);
    }
    const double run_med = median(run);
    end_to_end = {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(wall), "s"},
        {"sim_speed", reference.sim_s / run_med, "sim_s/s"},
        {"packets_per_s", reference.packets / run_med, "1/s", false},
        {"slice_ms_p50", 1e3 * quantile(slices, 0.5), "ms", false},
        {"slice_ms_p90", 1e3 * quantile(slices, 0.9), "ms", false},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"raw_setup_s", median(raw_setup), "s", false},
        {"raw_wall_s", median(raw_wall), "s", false},
        {"raw_sim_speed", reference.sim_s / median(raw_run), "sim_s/s",
         false},
        {"machine_speed", median(speed), "ratio", false},
        {"goodput_mbps", reference.goodput_mbps, "Mb/s", false},
        {"ctrl_goodput_kbps", reference.ctrl_goodput_kbps, "kb/s", false},
    };
    std::printf("perfbench reps untraced %zu traced %zu, slices %zu, "
                "simulated %.6g s and %.0f frames per rep\n",
                untraced.size(), traced.size(), slices.size(),
                reference.sim_s, reference.packets);
    std::printf("perfbench untraced rep scaled set-up s min %.6g p25 %.6g "
                "median %.6g p75 %.6g max %.6g\n",
                quantile(setup, 0), quantile(setup, 0.25), median(setup),
                quantile(setup, 0.75), quantile(setup, 1));
    std::printf("perfbench untraced rep scaled run s min %.6g p25 %.6g "
                "median %.6g p75 %.6g max %.6g\n",
                quantile(run, 0), quantile(run, 0.25), run_med,
                quantile(run, 0.75), quantile(run, 1));
    if (args.trace) {
      trace = summarize_trace(w, reference, untraced, traced, profile,
                              median(link_us), median(advance_ns),
                              median(span_s));
    }
  }

  const double fail_rate = static_cast<double>(checks.failed()) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, checks.attempted()));
  std::printf("perfbench checks attempted %llu failed %llu "
              "check_fail_rate %.6g\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()), fail_rate);
  for (const std::string& f : checks.failures()) {
    std::printf("perfbench check FAILED: %s\n", f.c_str());
  }
  char digest_hash[17];
  std::snprintf(digest_hash, sizeof digest_hash, "%016llx",
                static_cast<unsigned long long>(fnv1a64(reference.digest)));
  std::printf("perfbench digest fnv1a64 %s bytes %zu goodput_mbps %.17g "
              "ctrl_goodput_kbps %.17g\n",
              digest_hash, reference.digest.size(), reference.goodput_mbps,
              reference.ctrl_goodput_kbps);
  std::printf("perfbench end-to-end (untraced reps)\n");
  print_metrics(end_to_end);
  std::printf("  %-26s %14.6g %s%s\n", "check_fail_rate", fail_rate, "ratio",
              "  (printed only)");
  if (args.trace && have_reps) {
    std::printf("perfbench per-layer (traced reps, per rep)\n");
    print_metrics(trace.metrics);
    std::printf("perfbench layer table, seconds per rep of %.6g s total\n",
                trace.total_s);
    for (const Layer& l : trace.layers) {
      std::printf("  %-12s %12.6f s %7.2f%%\n", l.name.c_str(), l.s,
                  100.0 * l.s / trace.total_s);
    }
    std::printf("  %-12s %12.6f s %7.2f%%\n", "unattributed",
                trace.unattributed_s,
                100.0 * trace.unattributed_s / trace.total_s);
  }

  Json result = Json::object();
  result.set("correct", checks.failed() == 0 && have_reps);
  result.set("attempted", static_cast<std::int64_t>(checks.attempted()));
  result.set("failed", static_cast<std::int64_t>(checks.failed()));
  result.set("metrics",
             metrics_json(args.trace ? trace.metrics : end_to_end));

  if (!args.out_dir.empty()) {
    Json record = Json::object();
    record.set("context", context);
    record.set("workload", w.name);
    record.set("seed", static_cast<std::int64_t>(args.seed));
    record.set("trace", args.trace);
    record.set("result", result);
    record.set("digest_fnv1a64", std::string(digest_hash));
    if (args.trace) {
      Json layers = Json::object();
      for (const Layer& l : trace.layers) layers.set(l.name, l.s);
      layers.set("unattributed", trace.unattributed_s);
      layers.set("total", trace.total_s);
      record.set("layers_s_per_rep", std::move(layers));
      Json spans = Json::object();
      for (const auto& [name, s] : profile.spans) {
        Json row = Json::object();
        row.set("count", static_cast<std::int64_t>(s.count));
        row.set("incl_s", s.incl_s);
        row.set("self_s", s.self_s);
        spans.set(name, std::move(row));
      }
      record.set("spans", std::move(spans));
    }
    record.set("digest", Json::parse(reference.digest));
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << record.dump();
    std::printf("perfbench wrote %s\n", path.c_str());
  }

  std::printf("%s\n", result.dump_compact().c_str());
  return checks.failed() == 0 && have_reps ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

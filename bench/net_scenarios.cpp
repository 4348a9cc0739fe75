// Network-scale CoS on the event-driven engine: one or more APs, N
// contending stations, every data frame carrying a free CoS control
// message. Sweeps the station count 1 -> 1024 and reports what the
// network gets out of the shared medium: aggregate data throughput, CoS
// control goodput (the bits the paper gets "for free"), the airtime DCF
// burns on overhead, Jain fairness across stations, and the engine's
// event throughput.
//
// Runner-based: each Monte-Carlo trial runs one full scenario seed, and
// trials fan out across the thread pool with (base_seed, point, trial)
// derived seeds — results are bit-identical at any --threads value.
//
// `--topology FILE` swaps the single-AP axis for one multi-BSS topology
// read from a net::Topology JSON document (hidden terminals, OBSS
// channel overlap); `--traffic SPEC` selects the per-station offered
// load: "saturated" (default), "poisson:RATE_FPS" or
// "onoff:RATE_FPS:MEAN_ON_US:MEAN_OFF_US".
//
// Besides the console table, every run writes `results/BENCH_net.json`:
// seed-deterministic goodput/collision/event-rate numbers per station
// count — plus a 2-AP co-channel OBSS point — in the same `stages` shape
// as BENCH_phy.json, so tools/bench_compare can gate network-level
// regressions in CI with a tight tolerance.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/scenario.h"
#include "runner/sinks.h"
#include "runner/sweep.h"

using namespace silence;

namespace {

constexpr int kDefaultTrialsPerPoint = 4;

// --stas "1,2,16": the sweep's station-count axis. Lets CI (and anyone
// chasing one scenario's MAC timeline) run a single point — with one
// point and --trials 1 the --trace timeline is bit-stable at any thread
// count, because exactly one run_scenario claims the simulation tracks.
std::vector<int> parse_stas(const std::string& csv) {
  std::vector<int> points;
  const char* p = csv.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p || v < 1 || (*end != ',' && *end != '\0')) {
      std::fprintf(stderr, "net_scenarios: bad --stas list '%s'\n",
                   csv.c_str());
      std::exit(2);
    }
    points.push_back(static_cast<int>(v));
    p = *end == ',' ? end + 1 : end;
  }
  if (points.empty()) {
    std::fprintf(stderr, "net_scenarios: empty --stas list\n");
    std::exit(2);
  }
  return points;
}

// --traffic "saturated" | "poisson:2000" | "onoff:2000:4000:4000".
net::TrafficModel parse_traffic(const std::string& spec) {
  net::TrafficModel tm;
  if (spec == "saturated") return tm;
  const auto fields = [&spec] {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
      const std::size_t colon = spec.find(':', start);
      out.push_back(spec.substr(start, colon - start));
      if (colon == std::string::npos) return out;
      start = colon + 1;
    }
  }();
  const auto num = [&spec](const std::string& field) {
    char* end = nullptr;
    const double v = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0' || !(v > 0.0)) {
      std::fprintf(stderr, "net_scenarios: bad --traffic '%s'\n",
                   spec.c_str());
      std::exit(2);
    }
    return v;
  };
  if (fields.size() == 2 && fields[0] == "poisson") {
    tm.kind = net::TrafficModel::Kind::kPoisson;
    tm.arrival_rate_fps = num(fields[1]);
    return tm;
  }
  if (fields.size() == 4 && fields[0] == "onoff") {
    tm.kind = net::TrafficModel::Kind::kOnOff;
    tm.arrival_rate_fps = num(fields[1]);
    tm.mean_on_us = num(fields[2]);
    tm.mean_off_us = num(fields[3]);
    return tm;
  }
  std::fprintf(stderr,
               "net_scenarios: bad --traffic '%s' (want saturated, "
               "poisson:RATE or onoff:RATE:ON_US:OFF_US)\n",
               spec.c_str());
  std::exit(2);
}

// Latency percentiles reported per point: every station's head-of-line
// wait histogram merged into one distribution (same for inter-TX gaps).
net::SlotHist merged_hol(const net::NetResult& r) {
  net::SlotHist h;
  for (const net::StaStats& s : r.stations) h += s.hol_wait_slots;
  return h;
}

net::SlotHist merged_gap(const net::NetResult& r) {
  net::SlotHist h;
  for (const net::StaStats& s : r.stations) h += s.inter_tx_gap_slots;
  return h;
}

// The scenario template every sweep point derives from: set in main()
// from --traffic / --topology, read by the (captureless) trial lambda.
net::Scenario g_base_scenario;
bool g_topology_mode = false;

net::Scenario base_scenario(const net::TrafficModel& traffic) {
  net::Scenario scenario;
  scenario.duration_us = 20e3;
  scenario.traffic = traffic;
  return scenario;
}

net::Scenario scenario_for(int num_stations) {
  net::Scenario scenario = g_base_scenario;
  // In topology mode the geometry is fixed by the file; the single sweep
  // point carries its total station count for labelling only.
  if (!g_topology_mode) {
    scenario.topology.bss[0].num_stations = num_stations;
  }
  return scenario;
}

// Engine event throughput per simulated second: a pure function of
// (scenario, seed), so it lands in BENCH_net.json and must survive the
// CI byte-identity comparisons across thread counts.
// (Wall-clock events/sec is printed to the console only.)
double events_per_sim_second(const net::NetResult& r) {
  return r.elapsed_us > 0.0
             ? static_cast<double>(r.events) / (r.elapsed_us * 1e-6)
             : 0.0;
}

// Appends one point's deterministic rows to the BENCH stages array.
void add_stage_rows(runner::Json& stages, const std::string& suffix,
                    const net::NetResult& r) {
  runner::Json thpt = runner::Json::object();
  thpt.set("name", "NET/goodput" + suffix);
  thpt.set("items_per_second", r.aggregate_throughput_mbps() * 1e6);
  stages.push_back(std::move(thpt));
  runner::Json ctrl = runner::Json::object();
  ctrl.set("name", "NET/ctrl_goodput" + suffix);
  ctrl.set("items_per_second", r.control_goodput_kbps() * 1e3);
  stages.push_back(std::move(ctrl));
  runner::Json events = runner::Json::object();
  events.set("name", "NET/engine_events" + suffix);
  events.set("items_per_second", events_per_sim_second(r));
  stages.push_back(std::move(events));
}

runner::Json net_point_row(std::int64_t stas, const net::NetResult& r) {
  std::size_t mpdus = 0;
  for (const net::StaStats& s : r.stations) mpdus += s.mpdus_delivered;
  runner::Json point = runner::Json::object();
  point.set("stas", stas);
  point.set("thpt_mbps", r.aggregate_throughput_mbps());
  point.set("ctrl_kbps", r.control_goodput_kbps());
  point.set("overhead", r.airtime_overhead());
  point.set("fairness", r.jain_fairness());
  point.set("coll_rate", r.collision_rate());
  point.set("mpdus", static_cast<std::int64_t>(mpdus));
  const net::SlotHist hol = merged_hol(r);
  const net::SlotHist gap = merged_gap(r);
  point.set("hol_wait_slots_p50", hol.quantile(0.50));
  point.set("hol_wait_slots_p95", hol.quantile(0.95));
  point.set("hol_wait_slots_p99", hol.quantile(0.99));
  point.set("inter_tx_gap_slots_p50", gap.quantile(0.50));
  point.set("inter_tx_gap_slots_p95", gap.quantile(0.95));
  point.set("events", static_cast<std::int64_t>(r.events));
  point.set("events_per_sim_second", events_per_sim_second(r));
  point.set("obss_overlap_us", r.obss_overlap_us);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stas_csv;
  std::string topology_path;
  std::string traffic_spec = "saturated";
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "net_scenarios",
      {{"--stas",
        "comma-separated station counts for the sweep axis\n"
        "                (default 1,2,4,8,16,32,64,128,256,512,1024)",
        [&stas_csv](const char* v) { stas_csv = v; }},
       {"--topology",
        "run one multi-BSS topology from a net::Topology JSON file\n"
        "                instead of the station-count axis (excludes --stas)",
        [&topology_path](const char* v) { topology_path = v; }},
       {"--traffic",
        "per-station offered load: saturated (default), poisson:RATE\n"
        "                or onoff:RATE:MEAN_ON_US:MEAN_OFF_US",
        [&traffic_spec](const char* v) { traffic_spec = v; }}});
  if (!topology_path.empty() && !stas_csv.empty()) {
    std::fprintf(stderr,
                 "net_scenarios: --topology and --stas are exclusive\n");
    return 2;
  }
  const int trials = args.trials > 0 ? args.trials : kDefaultTrialsPerPoint;
  const net::TrafficModel traffic = parse_traffic(traffic_spec);

  g_base_scenario = base_scenario(traffic);
  g_topology_mode = !topology_path.empty();
  if (g_topology_mode) {
    g_base_scenario.topology =
        net::Topology::from_json(runner::read_json_file(topology_path));
    g_base_scenario.topology.validate();
  }

  runner::SweepGrid<int> grid;  // points: total station count
  grid.base_seed = args.seed;
  grid.trials = static_cast<std::size_t>(trials);
  grid.points =
      g_topology_mode ? std::vector<int>{g_base_scenario.topology
                                             .total_stations()}
      : stas_csv.empty()
          ? std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
          : parse_stas(stas_csv);

  bench::print_header("Network", "multi-STA CoS scenarios (src/net/)");

  const auto outcome = runner::run_sweep(
      grid, {.threads = args.threads, .chunk = 1},
      [](const int& stas, const runner::TrialContext& ctx) {
        return net::run_scenario(scenario_for(stas), ctx.seed);
      });

  runner::SweepReport report;
  report.bench = "net_scenarios";
  report.title = "Network";
  report.description =
      "aggregate throughput, control goodput, overhead and fairness vs "
      "station count";
  runner::Json stas_axis = runner::Json::array();
  for (const int n : grid.points) {
    stas_axis.push_back(static_cast<std::int64_t>(n));
  }
  report.grid.set("stations", std::move(stas_axis));
  report.grid.set("trials_per_point", trials);
  report.grid.set("base_seed", static_cast<std::int64_t>(grid.base_seed));
  report.grid.set("scenario", g_base_scenario.to_json());
  report.columns = {{"stas", 6, 0},       {"thpt_mbps", 10, 2},
                    {"ctrl_kbps", 10, 2}, {"overhead", 9, 3},
                    {"fairness", 9, 3},   {"coll_rate", 10, 3},
                    {"mpdus", 8, 0},      {"hol_p50", 8, 1},
                    {"hol_p95", 8, 1},    {"hol_p99", 8, 1}};
  report.threads = outcome.threads;
  report.wall_seconds = outcome.wall_seconds;
  report.trials_run = outcome.trials_run;
  std::uint64_t total_events = 0;
  double total_sim_us = 0.0;
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const net::NetResult& r = outcome.point_results[i];
    total_events += r.events;
    total_sim_us += r.elapsed_us;
    std::size_t mpdus = 0;
    for (const net::StaStats& s : r.stations) mpdus += s.mpdus_delivered;
    const net::SlotHist hol = merged_hol(r);
    report.add_row({static_cast<std::int64_t>(grid.points[i]),
                    r.aggregate_throughput_mbps(), r.control_goodput_kbps(),
                    r.airtime_overhead(), r.jain_fairness(),
                    r.collision_rate(),
                    static_cast<std::int64_t>(mpdus), hol.quantile(0.50),
                    hol.quantile(0.95), hol.quantile(0.99)});
  }
  report.notes = {
      "",
      "Reading: control goodput scales with the medium's data airtime —",
      "every won frame carries its station's control chunk for free, so",
      "the overhead column (idle + collisions + ACKs) never grows a",
      "control-frame component. Fairness decays as far stations at low",
      "SNR lose airtime share to collisions and slow rates. hol_p* are",
      "head-of-line wait percentiles in 9 us slots, merged over stations",
      "(per-station distributions live in the .metrics.json sidecar)."};

  runner::TableSink table;
  table.write(report);
  // Wall-clock engine throughput over the whole sweep (every trial of
  // every point, on all threads): console-only (never in JSON, which the
  // CI byte-compares across thread counts).
  if (outcome.wall_seconds > 0.0) {
    std::printf(
        "  engine: %llu calendar events in %.2f s wall: %.0f events/s, "
        "%.4g simulated s per wall s\n\n",
        static_cast<unsigned long long>(total_events), outcome.wall_seconds,
        static_cast<double>(total_events) / outcome.wall_seconds,
        1e-6 * total_sim_us / outcome.wall_seconds);
  }
  // The main file now; its sidecars once the OBSS reference point below
  // has run too, so they cover every trial of the run.
  if (args.json) {
    runner::write_json_file(args.json_path, runner::JsonSink::payload(report));
  }
  std::size_t trials_run = outcome.trials_run;
  double wall_seconds = outcome.wall_seconds;

  // Machine-readable perf/behavior baseline for tools/bench_compare.
  // Only seed-deterministic quantities (no wall-clock), so the CI gate
  // can use a tight tolerance: goodput as items/sec (bits per simulated
  // second of medium time) and engine events per simulated second, per
  // station count.
  runner::Json bench_json = runner::Json::object();
  bench_json.set("bench", "net_scenarios");
  bench_json.set("schema_version", 1);
  runner::Json stages = runner::Json::array();
  runner::Json net_points = runner::Json::array();
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const net::NetResult& r = outcome.point_results[i];
    add_stage_rows(stages, "/stas=" + std::to_string(grid.points[i]), r);
    net_points.push_back(
        net_point_row(static_cast<std::int64_t>(grid.points[i]), r));
  }

  // The standing OBSS reference point: two co-channel 8-station cells
  // whose PPDUs overlap in time, exercising the engine's cross-BSS
  // interference path. Skipped in topology mode: the file IS the
  // topology under test.
  if (!g_topology_mode) {
    net::Scenario obss = base_scenario(traffic);
    obss.topology.bss.clear();
    obss.topology.bss.push_back({.channel = 36, .num_stations = 8});
    obss.topology.bss.push_back({.channel = 36, .num_stations = 8});
    runner::SweepGrid<int> obss_grid;
    obss_grid.base_seed = args.seed;
    obss_grid.trials = static_cast<std::size_t>(trials);
    obss_grid.points = {obss.topology.total_stations()};
    const auto obss_outcome = runner::run_sweep(
        obss_grid, {.threads = args.threads, .chunk = 1},
        [&obss](const int&, const runner::TrialContext& ctx) {
          return net::run_scenario(obss, ctx.seed);
        });
    trials_run += obss_outcome.trials_run;
    wall_seconds += obss_outcome.wall_seconds;
    const net::NetResult& r = obss_outcome.point_results[0];
    add_stage_rows(stages, "/obss=2ap_cochannel", r);
    runner::Json row = net_point_row(
        static_cast<std::int64_t>(obss.topology.total_stations()), r);
    row.set("obss", "2ap_cochannel");
    net_points.push_back(std::move(row));
    std::printf(
        "  obss reference (2 co-channel APs, 8+8 STAs): %.1f us overlap, "
        "%.2f Mb/s\n\n",
        r.obss_overlap_us, r.aggregate_throughput_mbps());
  }
  bench_json.set("stages", std::move(stages));
  bench_json.set("net_points", std::move(net_points));
  runner::write_json_file("results/BENCH_net.json", bench_json);
  if (args.json) {
    runner::write_sidecars(args.json_path, report.bench, report.threads,
                           trials_run, wall_seconds);
  }

  bench::finish_observability(args);
  return 0;
}

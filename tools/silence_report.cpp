// silence_report — fuses one sweep run's artifacts into a single human
// + machine readable report.
//
//   silence_report <result.json> [--trace FILE] [--timing FILE]
//                  [--metrics FILE] [--health FILE] [--out BASE]
//
// Inputs:
//   <result.json>            the deterministic sweep result (JsonSink)
//   <stem>.timing.json       wall-clock / thread-count sidecar
//   <stem>.metrics.json      obs counters + latency histograms
//   <stem>.health.json       PHY signal-health sidecar (obs/health)
//   --trace FILE             Chrome/Perfetto trace (wall spans under
//                            pid 1, per-station MAC timelines under
//                            pid 2, phy-health counters under pid 3)
//
// Sidecars are auto-discovered next to the result file; an absent
// auto-discovered sidecar degrades to a note in the report. Naming an
// input explicitly on the CLI (--trace/--timing/--metrics/--health)
// makes it REQUIRED: if it is missing or unparseable the tool prints
// what went wrong and exits nonzero instead of silently omitting the
// section.
//
// Output: BASE.md (markdown digest: results table, latency percentiles,
// per-station MAC table, PHY health, trace track inventory) and
// BASE.json (the same data structured). BASE defaults to the result
// stem + ".report", i.e. results/net_scenarios.json ->
// results/net_scenarios.report.{md,json}.
//
// Exit status: 0 = report written, 2 = usage error, unreadable result,
// or a missing/unparseable explicitly requested input.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/health/health.h"
#include "runner/json.h"
#include "runner/sinks.h"

namespace {

using silence::runner::Json;
namespace health = silence::obs::health;

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <result.json> [--trace FILE] [--timing FILE]\n"
               "       [--metrics FILE] [--health FILE] [--out BASE]\n"
               "  fuses the result file, its .timing/.metrics/.health\n"
               "  sidecars and (optionally) a Chrome trace into\n"
               "  BASE.md + BASE.json (default BASE: result stem +\n"
               "  '.report'). Sidecars are auto-discovered next to the\n"
               "  result; naming one explicitly makes it required\n"
               "  (missing or unparseable => exit 2).\n",
               argv0);
  return code;
}

const Json* field(const Json& root, const char* key) {
  return root.is_object() ? root.find(key) : nullptr;
}

std::string string_field(const Json& root, const char* key,
                         const std::string& fallback = "") {
  const Json* v = field(root, key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

double number_field(const Json& root, const char* key, double fallback) {
  const Json* v = field(root, key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

// `results/foo.json` -> `results/foo.report`.
std::string default_out_base(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".report";
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

// ---------------------------------------------------------------------
// Trace summary: track inventory + span balance, per process.

struct TrackSummary {
  std::string process;  // process_name metadata for the pid
  std::string name;     // thread_name metadata for (pid, tid)
  std::size_t events = 0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t instants = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;
};

struct TraceSummary {
  bool loaded = false;
  std::string path;
  std::string error;
  std::size_t total_events = 0;
  // Keyed (pid, tid), insertion-ordered by first appearance.
  std::vector<std::pair<std::pair<std::int64_t, std::int64_t>, TrackSummary>>
      tracks;

  TrackSummary& track(std::int64_t pid, std::int64_t tid) {
    for (auto& [key, summary] : tracks) {
      if (key.first == pid && key.second == tid) return summary;
    }
    tracks.push_back({{pid, tid}, {}});
    return tracks.back().second;
  }
};

TraceSummary summarize_trace(const std::string& path) {
  TraceSummary out;
  out.path = path;
  Json root;
  try {
    root = silence::runner::read_json_file(path);
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  const Json* events = field(root, "traceEvents");
  if (events == nullptr || !events->is_array()) {
    out.error = "no traceEvents array";
    return out;
  }
  std::map<std::int64_t, std::string> process_names;
  for (const Json& event : events->as_array()) {
    const std::string ph = string_field(event, "ph");
    const auto pid = static_cast<std::int64_t>(number_field(event, "pid", 0));
    const auto tid = static_cast<std::int64_t>(number_field(event, "tid", 0));
    if (ph == "M") {
      const std::string what = string_field(event, "name");
      const Json* args = field(event, "args");
      const std::string value =
          args != nullptr ? string_field(*args, "name") : "";
      if (what == "process_name") {
        process_names[pid] = value;
      } else if (what == "thread_name") {
        out.track(pid, tid).name = value;
      }
      continue;
    }
    ++out.total_events;
    TrackSummary& track = out.track(pid, tid);
    const double ts = number_field(event, "ts", 0.0);
    if (track.events == 0 || ts < track.first_ts) track.first_ts = ts;
    if (track.events == 0 || ts > track.last_ts) track.last_ts = ts;
    ++track.events;
    if (ph == "B") ++track.begins;
    else if (ph == "E") ++track.ends;
    else if (ph == "i" || ph == "I") ++track.instants;
  }
  for (auto& [key, track] : out.tracks) {
    const auto it = process_names.find(key.first);
    if (it != process_names.end()) track.process = it->second;
  }
  out.loaded = true;
  return out;
}

// ---------------------------------------------------------------------
// Per-station rollup out of the .metrics.json histograms/counters.

struct StationRow {
  std::string label;  // "00", "01", ...
  double hol_p50 = 0.0, hol_p95 = 0.0, hol_p99 = 0.0;
  double gap_p50 = 0.0, gap_p95 = 0.0;
  std::int64_t tx_count = 0;      // hol histogram count == winning TXes
  std::int64_t collisions = 0;
};

std::vector<StationRow> station_rows(const Json& metrics) {
  std::map<std::string, StationRow> rows;
  const auto row_for = [&rows](const std::string& label) -> StationRow& {
    StationRow& row = rows[label];
    row.label = label;
    return row;
  };
  static const std::string prefix = "net.sta.";
  if (const Json* histograms = field(metrics, "histograms")) {
    for (const auto& [name, entry] : histograms->as_object()) {
      if (name.rfind(prefix, 0) != 0) continue;
      const std::size_t dot = name.find('.', prefix.size());
      if (dot == std::string::npos) continue;
      const std::string label = name.substr(prefix.size(), dot - prefix.size());
      const std::string what = name.substr(dot + 1);
      StationRow& row = row_for(label);
      if (what == "hol_wait_slots") {
        row.hol_p50 = number_field(entry, "p50", 0.0);
        row.hol_p95 = number_field(entry, "p95", 0.0);
        row.hol_p99 = number_field(entry, "p99", 0.0);
        row.tx_count = static_cast<std::int64_t>(
            number_field(entry, "count", 0.0));
      } else if (what == "inter_tx_gap_slots") {
        row.gap_p50 = number_field(entry, "p50", 0.0);
        row.gap_p95 = number_field(entry, "p95", 0.0);
      }
    }
  }
  if (const Json* counters = field(metrics, "counters")) {
    for (const auto& [name, value] : counters->as_object()) {
      if (name.rfind(prefix, 0) != 0) continue;
      const std::size_t dot = name.find('.', prefix.size());
      if (dot == std::string::npos || name.substr(dot + 1) != "collisions") {
        continue;
      }
      row_for(name.substr(prefix.size(), dot - prefix.size())).collisions =
          value.as_int();
    }
  }
  std::vector<StationRow> out;
  for (auto& [label, row] : rows) out.push_back(std::move(row));
  return out;
}

// ---------------------------------------------------------------------
// Markdown rendering.

void md_results_table(std::string& md, const Json& result) {
  const Json* columns = field(result, "columns");
  const Json* points = field(result, "points");
  if (columns == nullptr || !columns->is_array() || points == nullptr ||
      !points->is_array() || points->size() == 0) {
    md += "_no result points_\n";
    return;
  }
  std::vector<std::string> names;
  for (const Json& c : columns->as_array()) names.push_back(c.as_string());
  md += "|";
  for (const std::string& n : names) md += " " + n + " |";
  md += "\n|";
  for (std::size_t i = 0; i < names.size(); ++i) md += " --- |";
  md += "\n";
  for (const Json& point : points->as_array()) {
    md += "|";
    for (const std::string& n : names) {
      const Json* cell = point.find(n);
      md += ' ';
      md += cell != nullptr ? cell->dump_compact() : "-";
      md += " |";
    }
    md += "\n";
  }
}

// ---------------------------------------------------------------------
// PHY health: .health.json sidecar rollup (obs/health).

// Cells the detector declared silent: scores are decision-clamped below
// kScoreThreshold (= 256 = 2^8), and buckets 0..8 hold exactly the
// values 0..255, so the bucket sum is exact, not an estimate.
std::uint64_t declared_silent(const health::HealthHist& h) {
  const std::size_t boundary =
      silence::obs::histogram_bucket(health::kScoreThreshold - 1);
  std::uint64_t n = 0;
  for (std::size_t b = 0; b <= boundary; ++b) n += h.buckets[b];
  return n;
}

// Whole-band rollup of one waterfall kind (or one truth's score row).
struct BandSummary {
  std::uint64_t active_cells = 0;  // subcarriers with >= 1 sample
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void add(const health::HealthHist& h) {
    if (h.count == 0) return;
    if (active_cells == 0 || h.min < min) min = h.min;
    if (active_cells == 0 || h.max > max) max = h.max;
    ++active_cells;
    count += h.count;
    sum += h.sum;
  }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

BandSummary band_summary(
    const std::array<health::HealthHist, health::kSubcarriers>& row) {
  BandSummary out;
  for (const health::HealthHist& h : row) out.add(h);
  return out;
}

// The detector operating point at the configured threshold, computed two
// independent ways: from the confusion counters and from the per-truth
// score histograms. The quantization makes them equal by construction;
// `consistent` is the cross-check.
struct OperatingPoint {
  std::uint64_t truth_silent = 0, truth_active = 0;
  std::uint64_t misses = 0, false_alarms = 0;
  std::uint64_t hist_misses = 0, hist_false_alarms = 0;
  bool consistent = false;

  double miss_rate() const {
    return truth_silent == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(truth_silent);
  }
  double false_alarm_rate() const {
    return truth_active == 0 ? 0.0
                             : static_cast<double>(false_alarms) /
                                   static_cast<double>(truth_active);
  }
};

OperatingPoint operating_point(const health::HealthSnapshot& h) {
  const auto counter = [&h](health::Counter c) {
    return h.counters[static_cast<std::size_t>(c)];
  };
  OperatingPoint out;
  out.truth_silent = counter(health::Counter::kTruthSilent);
  out.truth_active = counter(health::Counter::kTruthActive);
  out.misses = counter(health::Counter::kMisses);
  out.false_alarms = counter(health::Counter::kFalseAlarms);
  std::uint64_t silent_total = 0, silent_detected = 0, active_silent = 0;
  const auto& silent =
      h.scores[static_cast<std::size_t>(health::Truth::kSilent)];
  const auto& active =
      h.scores[static_cast<std::size_t>(health::Truth::kActive)];
  for (std::size_t sc = 0; sc < health::kSubcarriers; ++sc) {
    silent_total += silent[sc].count;
    silent_detected += declared_silent(silent[sc]);
    active_silent += declared_silent(active[sc]);
  }
  out.hist_misses = silent_total - silent_detected;
  out.hist_false_alarms = active_silent;
  out.consistent = out.hist_misses == out.misses &&
                   out.hist_false_alarms == out.false_alarms &&
                   silent_total == out.truth_silent;
  return out;
}

void md_health_section(std::string& md, const health::HealthSnapshot& h) {
  const auto counter = [&h](health::Counter c) {
    return static_cast<unsigned long long>(
        h.counters[static_cast<std::size_t>(c)]);
  };
  char line[256];

  // Silence-plan audit: planned vs detected vs decoded.
  std::snprintf(line, sizeof(line),
                "- plan: %llu call(s), %llu interval(s), %llu silence(s), "
                "%llu bit(s)\n",
                counter(health::Counter::kPlans),
                counter(health::Counter::kIntervalsPlanned),
                counter(health::Counter::kSilencesPlanned),
                counter(health::Counter::kBitsPlanned));
  md += line;
  std::snprintf(line, sizeof(line),
                "- decode: %llu round(s), %llu interval(s) detected, "
                "%llu bit(s) decoded\n",
                counter(health::Counter::kDecodeRounds),
                counter(health::Counter::kIntervalsDetected),
                counter(health::Counter::kBitsDecoded));
  md += line;
  const std::uint64_t rounds =
      h.counters[static_cast<std::size_t>(health::Counter::kSelectionRounds)];
  if (rounds > 0) {
    const double n = static_cast<double>(rounds);
    std::snprintf(
        line, sizeof(line),
        "- selection: %llu round(s); per round %s selected, %s detectable, "
        "%s erroneous\n",
        counter(health::Counter::kSelectionRounds),
        fmt(counter(health::Counter::kSubcarriersSelected) / n).c_str(),
        fmt(counter(health::Counter::kSubcarriersDetectable) / n).c_str(),
        fmt(counter(health::Counter::kSubcarriersErroneous) / n).c_str());
    md += line;
  } else {
    md += "- selection: no feedback rounds recorded\n";
  }
  if (h.nabla_evm.count > 0) {
    std::snprintf(line, sizeof(line),
                  "- nabla-EVM drift: %llu sample(s), mean %s\n",
                  static_cast<unsigned long long>(h.nabla_evm.count),
                  fmt(h.nabla_evm.mean() / health::kNablaEvmScale).c_str());
    md += line;
  }

  // Waterfalls, scaled back to physical units.
  md += "\n| waterfall | subcarriers | samples | mean | min | max |\n"
        "| --- | --- | --- | --- | --- | --- |\n";
  static constexpr struct {
    health::Waterfall kind;
    const char* label;
    double scale;
  } kKinds[] = {
      {health::Waterfall::kSnr, "bin SNR (linear)", health::kSnrScale},
      {health::Waterfall::kEvm, "EVM", health::kEvmScale},
      {health::Waterfall::kChanMag, "|H|", health::kChanScale},
  };
  for (const auto& kind : kKinds) {
    const BandSummary band =
        band_summary(h.waterfalls[static_cast<std::size_t>(kind.kind)]);
    if (band.count == 0) {
      md += std::string("| ") + kind.label + " | 0 | 0 | - | - | - |\n";
      continue;
    }
    md += std::string("| ") + kind.label + " | " +
          std::to_string(band.active_cells) + " | " +
          std::to_string(band.count) + " | " +
          fmt(band.mean() / kind.scale) + " | " +
          fmt(static_cast<double>(band.min) / kind.scale) + " | " +
          fmt(static_cast<double>(band.max) / kind.scale) + " |\n";
  }

  // Detector operating point at the configured threshold (score 256).
  const OperatingPoint op = operating_point(h);
  if (op.truth_silent + op.truth_active > 0) {
    std::snprintf(
        line, sizeof(line),
        "\nDetector @ configured threshold: %llu silent cell(s) "
        "(miss rate %s), %llu active cell(s) (false-alarm rate %s)\n",
        static_cast<unsigned long long>(op.truth_silent),
        fmt(op.miss_rate()).c_str(),
        static_cast<unsigned long long>(op.truth_active),
        fmt(op.false_alarm_rate()).c_str());
    md += line;
    md += op.consistent
              ? "ROC histogram vs confusion counters: consistent\n"
              : "ROC histogram vs confusion counters: **MISMATCH**\n";
  } else {
    md += "\nDetector: no ground-truth labelled scores (network runs "
          "don't label; see fig10)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string result_path;
  std::string trace_path;
  std::string out_base;
  // Explicitly named sidecar paths (empty = auto-discover, tolerant).
  std::string timing_path, metrics_path, health_path;
  const auto take_value = [&](int& i, std::string& into) {
    if (i + 1 >= argc) return false;
    into = argv[++i];
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      return usage(argv[0], 0);
    } else if (!std::strcmp(argv[i], "--trace")) {
      if (!take_value(i, trace_path)) return usage(argv[0], 2);
    } else if (!std::strcmp(argv[i], "--timing")) {
      if (!take_value(i, timing_path)) return usage(argv[0], 2);
    } else if (!std::strcmp(argv[i], "--metrics")) {
      if (!take_value(i, metrics_path)) return usage(argv[0], 2);
    } else if (!std::strcmp(argv[i], "--health")) {
      if (!take_value(i, health_path)) return usage(argv[0], 2);
    } else if (!std::strcmp(argv[i], "--out")) {
      if (!take_value(i, out_base)) return usage(argv[0], 2);
    } else if (result_path.empty()) {
      result_path = argv[i];
    } else {
      return usage(argv[0], 2);
    }
  }
  if (result_path.empty()) return usage(argv[0], 2);
  if (out_base.empty()) out_base = default_out_base(result_path);

  Json result;
  try {
    result = silence::runner::read_json_file(result_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  // Sidecars. Auto-discovered ones that are absent degrade to a note in
  // the report; an input the user explicitly asked for must load, so a
  // missing file fails loudly instead of producing a silently thinner
  // report. Parse errors are fatal either way — a sidecar that exists
  // but doesn't parse is a broken artifact, not an optional one.
  bool load_failed = false;
  const auto load_sidecar = [&](const std::string& explicit_path,
                                const std::string& auto_path,
                                const char* what, Json& into) {
    const bool required = !explicit_path.empty();
    const std::string& path = required ? explicit_path : auto_path;
    if (!std::filesystem::exists(path)) {
      if (required) {
        std::fprintf(stderr, "%s: requested %s sidecar does not exist: %s\n",
                     argv[0], what, path.c_str());
        load_failed = true;
      }
      return false;
    }
    try {
      into = silence::runner::read_json_file(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: cannot parse %s sidecar %s: %s\n", argv[0],
                   what, path.c_str(), e.what());
      load_failed = true;
      return false;
    }
    return true;
  };
  Json timing, metrics, health_doc;
  const bool have_timing = load_sidecar(
      timing_path, silence::runner::timing_sidecar_path(result_path),
      "timing", timing);
  const bool have_metrics = load_sidecar(
      metrics_path, silence::runner::metrics_sidecar_path(result_path),
      "metrics", metrics);
  const bool have_health = load_sidecar(
      health_path, silence::runner::health_sidecar_path(result_path),
      "health", health_doc);
  if (load_failed) return 2;

  health::HealthSnapshot health_snapshot;
  if (have_health) {
    try {
      health_snapshot = health::health_from_json(health_doc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: malformed health sidecar: %s\n", argv[0],
                   e.what());
      return 2;
    }
  }

  TraceSummary trace;
  if (!trace_path.empty()) {
    trace = summarize_trace(trace_path);
    // --trace is always an explicit request: an unreadable trace is an
    // error, not a report footnote.
    if (!trace.loaded) {
      std::fprintf(stderr, "%s: cannot read trace %s: %s\n", argv[0],
                   trace_path.c_str(), trace.error.c_str());
      return 2;
    }
  }

  const std::string bench = string_field(result, "bench", "(unknown)");
  const std::vector<StationRow> stations =
      have_metrics ? station_rows(metrics) : std::vector<StationRow>{};

  // ----- markdown -----
  std::string md;
  md += "# Run report: " + bench + "\n\n";
  md += string_field(result, "title") + " — " +
        string_field(result, "description") + "\n\n";
  md += "- result: `" + result_path + "`\n";
  if (have_timing) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "- timing: %.2f s wall, %d thread(s), %lld trial(s)\n",
                  number_field(timing, "wall_seconds", 0.0),
                  static_cast<int>(number_field(timing, "threads", 0.0)),
                  static_cast<long long>(
                      number_field(timing, "trials_run", 0.0)));
    md += line;
  } else {
    md += "- timing: _no .timing.json sidecar_\n";
  }
  md += "\n## Results\n\n";
  md_results_table(md, result);

  md += "\n## Latency metrics\n\n";
  if (!have_metrics) {
    md += "_no .metrics.json sidecar (run with --json under "
          "SILENCE_OBS=ON)_\n";
  } else {
    md += "| histogram | count | mean | p50 | p95 | p99 |\n"
          "| --- | --- | --- | --- | --- | --- |\n";
    std::size_t listed = 0;
    if (const Json* histograms = field(metrics, "histograms")) {
      for (const auto& [name, entry] : histograms->as_object()) {
        // The per-station rows get their own table below.
        if (name.rfind("net.sta.", 0) == 0) continue;
        md += "| " + name + " | " +
              fmt(number_field(entry, "count", 0.0)) + " | " +
              fmt(number_field(entry, "mean", 0.0)) + " | " +
              fmt(number_field(entry, "p50", 0.0)) + " | " +
              fmt(number_field(entry, "p95", 0.0)) + " | " +
              fmt(number_field(entry, "p99", 0.0)) + " |\n";
        ++listed;
      }
    }
    if (listed == 0) md += "| _none_ | | | | | |\n";
    if (!stations.empty()) {
      md += "\n### Per-station MAC latency (slots)\n\n"
            "| STA | TXes | HoL p50 | HoL p95 | HoL p99 | gap p50 | "
            "gap p95 | collisions |\n"
            "| --- | --- | --- | --- | --- | --- | --- | --- |\n";
      for (const StationRow& row : stations) {
        md += "| " + row.label + " | " + std::to_string(row.tx_count) +
              " | " + fmt(row.hol_p50) + " | " + fmt(row.hol_p95) + " | " +
              fmt(row.hol_p99) + " | " + fmt(row.gap_p50) + " | " +
              fmt(row.gap_p95) + " | " + std::to_string(row.collisions) +
              " |\n";
      }
    }
  }

  md += "\n## PHY health\n\n";
  if (!have_health) {
    md += "_no .health.json sidecar (run with --json under "
          "SILENCE_OBS=ON)_\n";
  } else {
    md_health_section(md, health_snapshot);
  }

  md += "\n## Trace\n\n";
  if (trace_path.empty()) {
    md += "_no trace supplied (--trace FILE)_\n";
  } else {
    md += "`" + trace_path + "`: " + std::to_string(trace.total_events) +
          " event(s), " + std::to_string(trace.tracks.size()) +
          " track(s)\n\n";
    md += "| process | track | events | spans | instants | balanced |\n"
          "| --- | --- | --- | --- | --- | --- |\n";
    for (const auto& [key, track] : trace.tracks) {
      const std::string name =
          !track.name.empty()
              ? track.name
              : "tid " + std::to_string(key.second);
      md += "| " + (track.process.empty() ? "-" : track.process) + " | " +
            name + " | " + std::to_string(track.events) + " | " +
            std::to_string(track.begins) + "B/" +
            std::to_string(track.ends) + "E | " +
            std::to_string(track.instants) + " | " +
            (track.begins == track.ends ? "yes" : "NO") + " |\n";
    }
  }

  md += "\n";

  // ----- structured JSON -----
  Json report = Json::object();
  report.set("schema_version", 1);
  report.set("bench", bench);
  report.set("result", result_path);
  if (have_timing) report.set("timing", timing);
  if (have_metrics) {
    report.set("metrics", metrics);
    Json sta_rows = Json::array();
    for (const StationRow& row : stations) {
      Json r = Json::object();
      r.set("sta", row.label);
      r.set("tx_count", row.tx_count);
      r.set("hol_p50", row.hol_p50);
      r.set("hol_p95", row.hol_p95);
      r.set("hol_p99", row.hol_p99);
      r.set("gap_p50", row.gap_p50);
      r.set("gap_p95", row.gap_p95);
      r.set("collisions", row.collisions);
      sta_rows.push_back(std::move(r));
    }
    report.set("stations", std::move(sta_rows));
  }
  if (have_health) {
    report.set("health", health_doc);
    const OperatingPoint op = operating_point(health_snapshot);
    Json roc = Json::object();
    roc.set("truth_silent", static_cast<std::int64_t>(op.truth_silent));
    roc.set("truth_active", static_cast<std::int64_t>(op.truth_active));
    roc.set("misses", static_cast<std::int64_t>(op.misses));
    roc.set("false_alarms", static_cast<std::int64_t>(op.false_alarms));
    roc.set("miss_rate", op.miss_rate());
    roc.set("false_alarm_rate", op.false_alarm_rate());
    roc.set("histogram_consistent", op.consistent);
    report.set("detector_operating_point", std::move(roc));
  }
  if (!trace_path.empty() && trace.loaded) {
    Json t = Json::object();
    t.set("path", trace.path);
    t.set("events", static_cast<std::int64_t>(trace.total_events));
    Json tracks = Json::array();
    for (const auto& [key, track] : trace.tracks) {
      Json row = Json::object();
      row.set("pid", key.first);
      row.set("tid", key.second);
      row.set("process", track.process);
      row.set("name", track.name);
      row.set("events", static_cast<std::int64_t>(track.events));
      row.set("begins", static_cast<std::int64_t>(track.begins));
      row.set("ends", static_cast<std::int64_t>(track.ends));
      row.set("instants", static_cast<std::int64_t>(track.instants));
      row.set("balanced", track.begins == track.ends);
      tracks.push_back(std::move(row));
    }
    t.set("tracks", std::move(tracks));
    report.set("trace", std::move(t));
  }

  const std::string md_path = out_base + ".md";
  const std::string json_path = out_base + ".json";
  try {
    const std::filesystem::path p(md_path);
    if (p.has_parent_path()) {
      std::filesystem::create_directories(p.parent_path());
    }
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + md_path);
    out << md;
    silence::runner::write_json_file(json_path, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  std::printf("report written to %s and %s\n", md_path.c_str(),
              json_path.c_str());
  return 0;
}

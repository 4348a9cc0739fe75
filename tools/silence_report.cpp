// silence_report — fuses one sweep run's artifacts into a single human
// + machine readable report.
//
//   silence_report <result.json> [--trace FILE] [--obs FILE] [--out BASE]
//
// Inputs:
//   <result.json>            the deterministic sweep result (JsonSink)
//   <stem>.obs.json          observability sidecar (runner/sinks.h):
//                            `timing` (wall clock, threads), `metrics`
//                            (obs counters + latency histograms) and
//                            `health` (PHY signal health, obs/health)
//   --trace FILE             Chrome/Perfetto trace (wall spans under
//                            pid 1, per-station MAC timelines under
//                            pid 2, phy-health counters under pid 3)
//
// The sidecar is auto-discovered next to the result file; an absent
// auto-discovered sidecar, or an absent section, degrades to a note in
// the report. Naming an input explicitly on the CLI (--trace/--obs)
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
// PHY health adds an exact empirical ROC (each power-of-two score
// threshold is a bucket boundary) and a per-subcarrier table, and checks
// the truth-silent and truth-active totals, misses and false alarms at
// the configured threshold (score 256) against the confusion counters.
//
// Exit status: 0 = report written; 1 = report written, but the health
// section's score histograms disagree with its confusion counters (each
// mismatch is named on stderr); 2 = usage error, unreadable result, or
// a missing/unparseable explicitly requested input.
#include <algorithm>
#include <array>
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
               "usage: %s <result.json> [--trace FILE] [--obs FILE]\n"
               "       [--out BASE]\n"
               "  fuses the result file, its .obs.json sidecar and\n"
               "  (optionally) a Chrome trace into BASE.md + BASE.json\n"
               "  (default BASE: result stem + '.report'). The sidecar\n"
               "  is auto-discovered next to the result; naming it\n"
               "  explicitly makes it required (missing or unparseable\n"
               "  => exit 2). Exit 1: the health section's ROC disagrees\n"
               "  with its confusion counters.\n",
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
// Per-station rollup out of the `metrics` section's histograms/counters.

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
// PHY health: the sidecar's `health` section rolled up (obs/health).

using silence::obs::HistogramSnapshot;
using HealthRow = std::array<HistogramSnapshot, health::kSubcarriers>;

// rows[e] for a health enum (waterfall kind or ground truth).
template <typename Rows, typename Enum>
const HealthRow& row(const Rows& rows, Enum e) {
  return rows[static_cast<std::size_t>(e)];
}

double rate(std::uint64_t n, std::uint64_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(n) / static_cast<double>(total);
}

// Buckets 0..b summed over the band: bucket b ends at 2^b, so this is the
// exact number of scores below 2^b, not an estimate.
std::uint64_t band_below(const HealthRow& cells, std::size_t b) {
  std::uint64_t n = 0;
  for (const HistogramSnapshot& h : cells) {
    for (std::size_t i = 0; i <= b; ++i) n += h.buckets[i];
  }
  return n;
}

std::uint64_t band_count(const HealthRow& cells) {
  std::uint64_t n = 0;
  for (const HistogramSnapshot& h : cells) n += h.count;
  return n;
}

// The detector operating point at the configured threshold (score 256),
// computed two independent ways: from the confusion counters and from
// the per-truth score histograms. The quantization makes them equal by
// construction; checks() pairs them up, and a failed check makes
// silence_report exit 1.
struct OperatingPoint {
  std::uint64_t truth_silent = 0, truth_active = 0;
  std::uint64_t misses = 0, false_alarms = 0;
  std::uint64_t hist_silent = 0, hist_active = 0;
  std::uint64_t hist_misses = 0, hist_false_alarms = 0;

  struct Check {
    const char* what;
    std::uint64_t histogram, counter;
  };
  std::array<Check, 4> checks() const {
    return {{{"truth-silent cells", hist_silent, truth_silent},
             {"truth-active cells", hist_active, truth_active},
             {"misses @256", hist_misses, misses},
             {"false alarms @256", hist_false_alarms, false_alarms}}};
  }
  bool consistent() const {
    for (const Check& c : checks()) {
      if (c.histogram != c.counter) return false;
    }
    return true;
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
  const std::size_t boundary =
      silence::obs::histogram_bucket(health::kScoreThreshold - 1);
  const HealthRow& silent = row(h.scores, health::Truth::kSilent);
  const HealthRow& active = row(h.scores, health::Truth::kActive);
  out.hist_silent = band_count(silent);
  out.hist_active = band_count(active);
  out.hist_misses = out.hist_silent - band_below(silent, boundary);
  out.hist_false_alarms = band_below(active, boundary);
  return out;
}

// The exact empirical ROC, one row per power-of-two score threshold.
void md_roc_table(std::string& md, const health::HealthSnapshot& h) {
  const HealthRow& silent = row(h.scores, health::Truth::kSilent);
  const HealthRow& active = row(h.scores, health::Truth::kActive);
  const std::uint64_t silent_total = band_count(silent);
  const std::uint64_t active_total = band_count(active);
  md += "\n### Empirical ROC\n\n"
        "Exact bucket sums at power-of-two score thresholds (score "
        "256 = the configured detector threshold).\n\n"
        "| threshold (x256) | misses | miss rate | false alarms | "
        "false-alarm rate |\n| --- | --- | --- | --- | --- |\n";
  // Row b is the operating point "declare silent when score < 2^b"; the
  // table ends at the first threshold every score falls below.
  for (std::size_t b = 0; b < silence::obs::kHistogramBuckets; ++b) {
    const std::uint64_t silent_below = band_below(silent, b);
    const std::uint64_t misses = silent_total - silent_below;
    const std::uint64_t false_alarms = band_below(active, b);
    const std::uint64_t threshold = std::uint64_t{1} << b;
    md += "| " + std::to_string(threshold) +
          (threshold == health::kScoreThreshold ? " (configured)" : "") +
          " | " + std::to_string(misses) + " | " +
          fmt(rate(misses, silent_total)) + " | " +
          std::to_string(false_alarms) + " | " +
          fmt(rate(false_alarms, active_total)) + " |\n";
    if (silent_below == silent_total && false_alarms == active_total) break;
  }
}

// Per-subcarrier means in physical units plus the labelled score counts.
void md_subcarrier_table(std::string& md, const health::HealthSnapshot& h) {
  md += "\n### Per-subcarrier waterfalls\n\n"
        "Means in physical units (SNR linear, EVM rms fraction, |H| "
        "magnitude); `-` = no samples.\n\n"
        "| sc | SNR n | SNR mean | EVM n | EVM mean | \\|H\\| n | "
        "\\|H\\| mean | silent n | active n |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n";
  const HealthRow& snr = row(h.waterfalls, health::Waterfall::kSnr);
  const HealthRow& evm = row(h.waterfalls, health::Waterfall::kEvm);
  const HealthRow& mag = row(h.waterfalls, health::Waterfall::kChanMag);
  const HealthRow& silent = row(h.scores, health::Truth::kSilent);
  const HealthRow& active = row(h.scores, health::Truth::kActive);
  const auto cell = [](const HistogramSnapshot& hist, double scale) {
    return std::to_string(hist.count) + " | " +
           (hist.count == 0 ? std::string("-") : fmt(hist.mean() / scale));
  };
  for (std::size_t sc = 0; sc < health::kSubcarriers; ++sc) {
    md += "| " + std::to_string(sc) + " | " +
          cell(snr[sc], health::kSnrScale) + " | " +
          cell(evm[sc], health::kEvmScale) + " | " +
          cell(mag[sc], health::kChanScale) + " | " +
          std::to_string(silent[sc].count) + " | " +
          std::to_string(active[sc].count) + " |\n";
  }
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

  // Waterfalls, scaled back to physical units. Labels are markdown
  // table cells, so `|` is escaped.
  md += "\n| waterfall | subcarriers | samples | mean | min | max |\n"
        "| --- | --- | --- | --- | --- | --- |\n";
  static constexpr struct {
    health::Waterfall kind;
    const char* label;
    double scale;
  } kKinds[] = {
      {health::Waterfall::kSnr, "bin SNR (linear)", health::kSnrScale},
      {health::Waterfall::kEvm, "EVM", health::kEvmScale},
      {health::Waterfall::kChanMag, "\\|H\\|", health::kChanScale},
  };
  for (const auto& kind : kKinds) {
    std::size_t cells = 0;  // subcarriers with >= 1 sample
    HistogramSnapshot band;
    for (const HistogramSnapshot& sc : row(h.waterfalls, kind.kind)) {
      cells += sc.count > 0;
      band += sc;
    }
    if (band.count == 0) {
      md += std::string("| ") + kind.label + " | 0 | 0 | - | - | - |\n";
      continue;
    }
    md += std::string("| ") + kind.label + " | " + std::to_string(cells) +
          " | " + std::to_string(band.count) + " | " +
          fmt(band.mean() / kind.scale) + " | " +
          fmt(static_cast<double>(band.min) / kind.scale) + " | " +
          fmt(static_cast<double>(band.max) / kind.scale) + " |\n";
  }

  // Detector operating point at the configured threshold (score 256).
  const OperatingPoint op = operating_point(h);
  if (op.truth_silent + op.truth_active + op.hist_silent + op.hist_active >
      0) {
    std::snprintf(
        line, sizeof(line),
        "\nDetector @ configured threshold: %llu silent cell(s) "
        "(miss rate %s), %llu active cell(s) (false-alarm rate %s)\n",
        static_cast<unsigned long long>(op.truth_silent),
        fmt(rate(op.misses, op.truth_silent)).c_str(),
        static_cast<unsigned long long>(op.truth_active),
        fmt(rate(op.false_alarms, op.truth_active)).c_str());
    md += line;
    md += op.consistent()
              ? "ROC histogram vs confusion counters: consistent\n"
              : "ROC histogram vs confusion counters: **MISMATCH**\n";
    md_roc_table(md, h);
  } else {
    md += "\nDetector: no ground-truth labelled scores (network runs "
          "don't label; see fig10)\n";
  }
  md_subcarrier_table(md, h);
}

}  // namespace

int main(int argc, char** argv) {
  std::string result_path;
  std::string trace_path;
  std::string out_base;
  // Explicitly named sidecar (empty = auto-discover, tolerant).
  std::string obs_path;
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
    } else if (!std::strcmp(argv[i], "--obs")) {
      if (!take_value(i, obs_path)) return usage(argv[0], 2);
    } else if (!std::strcmp(argv[i], "--out")) {
      if (!take_value(i, out_base)) return usage(argv[0], 2);
    } else if (argv[i][0] == '-') {
      return usage(argv[0], 2);  // unknown option
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

  // The sidecar. An auto-discovered one that is absent degrades to notes
  // in the report; one the user explicitly asked for must load, so a
  // missing file fails loudly instead of producing a silently thinner
  // report. Parse errors are fatal either way — a sidecar that exists
  // but doesn't parse is a broken artifact, not an optional one.
  const bool obs_required = !obs_path.empty();
  if (!obs_required) {
    obs_path = silence::runner::obs_sidecar_path(result_path);
  }
  Json obs = Json::object();
  if (std::filesystem::exists(obs_path)) {
    try {
      obs = silence::runner::read_json_file(obs_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: cannot parse sidecar %s: %s\n", argv[0],
                   obs_path.c_str(), e.what());
      return 2;
    }
  } else if (obs_required) {
    std::fprintf(stderr, "%s: requested sidecar does not exist: %s\n",
                 argv[0], obs_path.c_str());
    return 2;
  }
  // Absent sections (a bench that recorded nothing, SILENCE_OBS=OFF)
  // stay null.
  const Json* timing = field(obs, "timing");
  const Json* metrics = field(obs, "metrics");
  const Json* health_doc = field(obs, "health");

  health::HealthSnapshot health_snapshot;
  if (health_doc != nullptr) {
    try {
      health_snapshot = health::health_from_json(*health_doc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: malformed health section: %s\n", argv[0],
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
      metrics != nullptr ? station_rows(*metrics) : std::vector<StationRow>{};

  // ----- markdown -----
  std::string md;
  md += "# Run report: " + bench + "\n\n";
  md += string_field(result, "title") + " — " +
        string_field(result, "description") + "\n\n";
  md += "- result: `" + result_path + "`\n";
  if (timing != nullptr) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "- timing: %.2f s wall, %d thread(s), %lld trial(s)\n",
                  number_field(*timing, "wall_seconds", 0.0),
                  static_cast<int>(number_field(*timing, "threads", 0.0)),
                  static_cast<long long>(
                      number_field(*timing, "trials_run", 0.0)));
    md += line;
  } else {
    md += "- timing: _no sidecar timing section_\n";
  }
  md += "\n## Results\n\n";
  md_results_table(md, result);

  md += "\n## Latency metrics\n\n";
  if (metrics == nullptr) {
    md += "_no sidecar metrics section (run with --json under "
          "SILENCE_OBS=ON)_\n";
  } else {
    md += "| histogram | count | mean | p50 | p95 | p99 |\n"
          "| --- | --- | --- | --- | --- | --- |\n";
    std::size_t listed = 0;
    if (const Json* histograms = field(*metrics, "histograms")) {
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
  if (health_doc == nullptr) {
    md += "_no sidecar health section (run with --json under "
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
  if (timing != nullptr) report.set("timing", *timing);
  if (metrics != nullptr) {
    report.set("metrics", *metrics);
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
  if (health_doc != nullptr) {
    report.set("health", *health_doc);
    const OperatingPoint op = operating_point(health_snapshot);
    Json roc = Json::object();
    roc.set("truth_silent", static_cast<std::int64_t>(op.truth_silent));
    roc.set("truth_active", static_cast<std::int64_t>(op.truth_active));
    roc.set("misses", static_cast<std::int64_t>(op.misses));
    roc.set("false_alarms", static_cast<std::int64_t>(op.false_alarms));
    roc.set("miss_rate", rate(op.misses, op.truth_silent));
    roc.set("false_alarm_rate", rate(op.false_alarms, op.truth_active));
    roc.set("histogram_consistent", op.consistent());
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

  // The health gate: the score histograms must reproduce the confusion
  // counters exactly (see OperatingPoint).
  if (health_doc == nullptr) return 0;
  const OperatingPoint op = operating_point(health_snapshot);
  for (const OperatingPoint::Check& c : op.checks()) {
    if (c.histogram == c.counter) continue;
    std::fprintf(stderr, "%s: health: %s: histogram %llu != counter %llu\n",
                 argv[0], c.what, static_cast<unsigned long long>(c.histogram),
                 static_cast<unsigned long long>(c.counter));
  }
  return op.consistent() ? 0 : 1;
}

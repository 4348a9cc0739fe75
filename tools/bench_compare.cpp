// bench_compare — diffs two perf_phy baseline files for CI perf gating.
//
//   bench_compare <baseline.json> <candidate.json> [--tolerance 0.10]
//
// Compares the top-level benchmark entries ("stages": per-benchmark
// real_ns/cpu_ns/items_per_second) and, when both files carry it, the
// "stage_throughput" map (per-pipeline-stage Mitems/s from the obs
// registry). A benchmark or stage regresses when the candidate is slower
// than baseline by more than the relative tolerance (default 10%).
//
// Exit status: 0 = no regression, 1 = at least one regression OR a
// baseline entry missing from the candidate, 2 = usage/input error. A
// benchmark that exists in the committed baseline but not in the new run
// is a failure — a silently dropped benchmark would otherwise disable
// its gate forever. Candidate-only entries stay informational (new
// benchmarks land before their baseline), as does a candidate lacking
// the whole stage_throughput section (legitimate SILENCE_OBS=OFF
// builds); speedups are reported as informational.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "runner/json.h"
#include "runner/sinks.h"

namespace {

using silence::runner::Json;

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <candidate.json> "
               "[--tolerance FRAC] [--report FILE]\n"
               "       [--gate-ratio NUM:DEN:MIN]...\n"
               "  compares two results/BENCH_*.json files; exits 1 when\n"
               "  any benchmark or pipeline stage slowed down by more than\n"
               "  FRAC (default 0.10 = 10%%), or when an entry present in\n"
               "  the baseline is missing from the candidate\n"
               "  --report FILE  also write the comparison as machine-\n"
               "  readable JSON (every compared metric, not just the\n"
               "  out-of-tolerance ones)\n"
               "  --gate-ratio NUM:DEN:MIN  require benchmark NUM's\n"
               "  items_per_second to be at least MIN x benchmark DEN's,\n"
               "  both read from the candidate file (a within-run speedup\n"
               "  gate immune to machine speed, e.g.\n"
               "  BM_Fft64:BM_Fft64Oracle:3.0 for the FFT kernel over its\n"
               "  oracle)\n",
               argv0);
  return code;
}

const Json* field(const Json& root, const char* key) {
  return root.is_object() ? root.find(key) : nullptr;
}

double number_field(const Json& entry, const char* key, double fallback) {
  const Json* value = field(entry, key);
  return value != nullptr && value->is_number() ? value->as_double()
                                                : fallback;
}

// One row of the machine-readable report: a compared metric, a baseline
// entry missing from the candidate, or a candidate-only entry.
struct ReportEntry {
  std::string name;
  std::string metric;      // empty for missing / candidate_only rows
  double base = 0.0;
  double cand = 0.0;
  double ratio = 0.0;      // cand / base (0 when not comparable)
  std::string status;      // ok | regression | improvement | missing |
                           // candidate_only
};

struct Comparison {
  std::size_t compared = 0;
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t missing = 0;  // in baseline, absent from candidate: a failure
  std::size_t only_candidate = 0;
  std::vector<ReportEntry> entries;

  void add_missing(const std::string& name) {
    ++missing;
    entries.push_back({name, "", 0.0, 0.0, 0.0, "missing"});
  }
  void add_candidate_only(const std::string& name) {
    ++only_candidate;
    entries.push_back({name, "", 0.0, 0.0, 0.0, "candidate_only"});
  }
};

// One metric of one entry. `higher_is_better` flips the regression
// direction (ns vs items/sec).
void compare_metric(const std::string& label, const char* metric,
                    double base, double cand, bool higher_is_better,
                    double tolerance, Comparison& summary) {
  if (base <= 0.0 || cand <= 0.0) return;
  const double ratio = cand / base;
  // Relative slowdown, positive = worse.
  const double slowdown = higher_is_better ? 1.0 - ratio : ratio - 1.0;
  ++summary.compared;
  std::string status = "ok";
  if (slowdown > tolerance) {
    status = "regression";
    ++summary.regressions;
    std::printf("REGRESSION  %-40s %-18s %12.4g -> %12.4g  (%+.1f%%)\n",
                label.c_str(), metric, base, cand,
                100.0 * (ratio - 1.0));
  } else if (slowdown < -tolerance) {
    status = "improvement";
    ++summary.improvements;
    std::printf("improved    %-40s %-18s %12.4g -> %12.4g  (%+.1f%%)\n",
                label.c_str(), metric, base, cand,
                100.0 * (ratio - 1.0));
  }
  summary.entries.push_back({label, metric, base, cand, ratio, status});
}

// "stages" is an array of google-benchmark runs keyed by "name".
void compare_benchmarks(const Json& base_root, const Json& cand_root,
                        double tolerance, Comparison& summary) {
  const Json* base = field(base_root, "stages");
  const Json* cand = field(cand_root, "stages");
  if (base == nullptr || !base->is_array()) return;
  if (cand == nullptr || !cand->is_array()) {
    // The baseline has benchmarks the candidate file lost wholesale.
    for (const Json& base_entry : base->as_array()) {
      const Json* name = field(base_entry, "name");
      if (name == nullptr || !name->is_string()) continue;
      summary.add_missing(name->as_string());
      std::printf("MISSING     benchmark %s absent from candidate\n",
                  name->as_string().c_str());
    }
    return;
  }
  const auto find_by_name = [](const Json& stages, const std::string& name)
      -> const Json* {
    for (const Json& entry : stages.as_array()) {
      const Json* entry_name = field(entry, "name");
      if (entry_name != nullptr && entry_name->is_string() &&
          entry_name->as_string() == name) {
        return &entry;
      }
    }
    return nullptr;
  };
  for (const Json& base_entry : base->as_array()) {
    const Json* name = field(base_entry, "name");
    if (name == nullptr || !name->is_string()) continue;
    const Json* cand_entry = find_by_name(*cand, name->as_string());
    if (cand_entry == nullptr) {
      summary.add_missing(name->as_string());
      std::printf("MISSING     benchmark %s absent from candidate\n",
                  name->as_string().c_str());
      continue;
    }
    compare_metric(name->as_string(), "real_ns",
                   number_field(base_entry, "real_ns", 0.0),
                   number_field(*cand_entry, "real_ns", 0.0),
                   /*higher_is_better=*/false, tolerance, summary);
    compare_metric(name->as_string(), "items_per_second",
                   number_field(base_entry, "items_per_second", 0.0),
                   number_field(*cand_entry, "items_per_second", 0.0),
                   /*higher_is_better=*/true, tolerance, summary);
  }
  for (const Json& cand_entry : cand->as_array()) {
    const Json* name = field(cand_entry, "name");
    if (name == nullptr || !name->is_string()) continue;
    if (find_by_name(*base, name->as_string()) == nullptr) {
      summary.add_candidate_only(name->as_string());
      std::printf("only in candidate: benchmark %s\n",
                  name->as_string().c_str());
    }
  }
}

// "stage_throughput" is an object keyed by pipeline stage; compare the
// Mitems/s figure (absent entirely in SILENCE_OBS=OFF baselines).
void compare_stage_throughput(const Json& base_root, const Json& cand_root,
                              double tolerance, Comparison& summary) {
  const Json* base = field(base_root, "stage_throughput");
  const Json* cand = field(cand_root, "stage_throughput");
  if (base == nullptr || cand == nullptr || !base->is_object() ||
      !cand->is_object()) {
    if (base != nullptr || cand != nullptr) {
      std::printf("stage_throughput present in only one file; skipped\n");
    }
    return;
  }
  for (const auto& [stage, base_entry] : base->as_object()) {
    const Json* cand_entry = cand->find(stage);
    if (cand_entry == nullptr) {
      summary.add_missing("stage " + stage);
      std::printf("MISSING     stage %s absent from candidate\n",
                  stage.c_str());
      continue;
    }
    compare_metric("stage " + stage, "mitems_per_second",
                   number_field(base_entry, "mitems_per_second", 0.0),
                   number_field(*cand_entry, "mitems_per_second", 0.0),
                   /*higher_is_better=*/true, tolerance, summary);
  }
  for (const auto& [stage, cand_entry] : cand->as_object()) {
    (void)cand_entry;
    if (base->find(stage) == nullptr) {
      summary.add_candidate_only("stage " + stage);
      std::printf("only in candidate: stage %s\n", stage.c_str());
    }
  }
}

// A within-candidate speedup gate: numerator benchmark must deliver at
// least `min_ratio` times the denominator's items_per_second. Because
// both numbers come from the same run on the same machine, the gate is
// insensitive to absolute host speed, unlike baseline-vs-candidate.
struct RatioGate {
  std::string numerator;
  std::string denominator;
  double min_ratio = 0.0;
};

bool parse_ratio_gate(const std::string& spec, RatioGate& gate) {
  const std::size_t first = spec.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos
                                 : spec.find(':', first + 1);
  if (second == std::string::npos) return false;
  gate.numerator = spec.substr(0, first);
  gate.denominator = spec.substr(first + 1, second - first - 1);
  char* end = nullptr;
  const std::string min_str = spec.substr(second + 1);
  gate.min_ratio = std::strtod(min_str.c_str(), &end);
  return !gate.numerator.empty() && !gate.denominator.empty() &&
         end != min_str.c_str() && std::isfinite(gate.min_ratio) &&
         gate.min_ratio > 0.0;
}

double candidate_items_per_second(const Json& cand_root,
                                  const std::string& name) {
  const Json* stages = field(cand_root, "stages");
  if (stages == nullptr || !stages->is_array()) return 0.0;
  for (const Json& entry : stages->as_array()) {
    const Json* entry_name = field(entry, "name");
    if (entry_name != nullptr && entry_name->is_string() &&
        entry_name->as_string() == name) {
      return number_field(entry, "items_per_second", 0.0);
    }
  }
  return 0.0;
}

void check_ratio_gates(const Json& cand_root,
                       const std::vector<RatioGate>& gates,
                       Comparison& summary) {
  for (const RatioGate& gate : gates) {
    const std::string label = gate.numerator + " vs " + gate.denominator;
    const double num = candidate_items_per_second(cand_root, gate.numerator);
    const double den =
        candidate_items_per_second(cand_root, gate.denominator);
    if (num <= 0.0 || den <= 0.0) {
      summary.add_missing("ratio gate " + label);
      std::printf(
          "MISSING     ratio gate %s: items_per_second not found in "
          "candidate\n",
          label.c_str());
      continue;
    }
    const double ratio = num / den;
    ++summary.compared;
    std::string status = "ok";
    if (ratio < gate.min_ratio) {
      status = "regression";
      ++summary.regressions;
      std::printf("REGRESSION  %-40s ratio %.3f below required %.3f\n",
                  label.c_str(), ratio, gate.min_ratio);
    } else {
      std::printf("ratio gate  %-40s %.3fx (required >= %.3fx)\n",
                  label.c_str(), ratio, gate.min_ratio);
    }
    summary.entries.push_back(
        {label, "items_ratio", gate.min_ratio, ratio, ratio, status});
  }
}

}  // namespace

// The machine-readable comparison: what the console printout says, but
// with every compared metric included so dashboards can plot ratios
// that stayed inside tolerance too.
Json report_json(const std::string& baseline, const std::string& candidate,
                 double tolerance, const Comparison& summary, bool pass) {
  Json root = Json::object();
  root.set("schema_version", 1);
  root.set("baseline", baseline);
  root.set("candidate", candidate);
  root.set("tolerance", tolerance);
  root.set("pass", pass);
  Json counts = Json::object();
  counts.set("compared", static_cast<std::int64_t>(summary.compared));
  counts.set("regressions", static_cast<std::int64_t>(summary.regressions));
  counts.set("improvements", static_cast<std::int64_t>(summary.improvements));
  counts.set("missing", static_cast<std::int64_t>(summary.missing));
  counts.set("candidate_only",
             static_cast<std::int64_t>(summary.only_candidate));
  root.set("summary", std::move(counts));
  Json entries = Json::array();
  for (const ReportEntry& e : summary.entries) {
    Json row = Json::object();
    row.set("name", e.name);
    row.set("status", e.status);
    if (!e.metric.empty()) {
      row.set("metric", e.metric);
      row.set("base", e.base);
      row.set("cand", e.cand);
      row.set("ratio", e.ratio);
    }
    entries.push_back(std::move(row));
  }
  root.set("entries", std::move(entries));
  return root;
}

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double tolerance = 0.10;
  std::string report_path;
  std::vector<RatioGate> gates;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      return usage(argv[0], 0);
    } else if (!std::strcmp(argv[i], "--tolerance")) {
      if (i + 1 >= argc) return usage(argv[0], 2);
      tolerance = std::strtod(argv[++i], nullptr);
      if (!(tolerance >= 0.0) || !std::isfinite(tolerance)) {
        std::fprintf(stderr, "%s: tolerance must be a non-negative number\n",
                     argv[0]);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--report")) {
      if (i + 1 >= argc) return usage(argv[0], 2);
      report_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--gate-ratio")) {
      if (i + 1 >= argc) return usage(argv[0], 2);
      RatioGate gate;
      if (!parse_ratio_gate(argv[++i], gate)) {
        std::fprintf(stderr,
                     "%s: --gate-ratio expects NUM:DEN:MIN with MIN > 0\n",
                     argv[0]);
        return 2;
      }
      gates.push_back(std::move(gate));
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) return usage(argv[0], 2);

  Json base_root;
  Json cand_root;
  try {
    base_root = silence::runner::read_json_file(paths[0]);
    cand_root = silence::runner::read_json_file(paths[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  std::printf("comparing %s (baseline) vs %s (candidate), tolerance %.0f%%\n",
              paths[0].c_str(), paths[1].c_str(), 100.0 * tolerance);
  Comparison summary;
  compare_benchmarks(base_root, cand_root, tolerance, summary);
  compare_stage_throughput(base_root, cand_root, tolerance, summary);
  check_ratio_gates(cand_root, gates, summary);

  std::printf(
      "%zu metric(s) compared: %zu regression(s), %zu improvement(s), "
      "%zu missing from candidate, %zu candidate-only\n",
      summary.compared, summary.regressions, summary.improvements,
      summary.missing, summary.only_candidate);
  const bool comparable = summary.compared > 0 || summary.missing > 0;
  const bool pass = summary.regressions == 0 && summary.missing == 0;
  if (!report_path.empty()) {
    try {
      silence::runner::write_json_file(
          report_path,
          report_json(paths[0], paths[1], tolerance, summary, pass));
      std::printf("report written to %s\n", report_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }
  if (!comparable) {
    std::fprintf(stderr, "%s: nothing comparable between the two files\n",
                 argv[0]);
    return 2;
  }
  return pass ? 0 : 1;
}

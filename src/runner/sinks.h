// Pluggable result sinks for sweep reports.
//
// A bench renders its merged sweep results into a SweepReport (named
// columns + one row of JSON cells per grid point) and hands it to any
// number of sinks: TableSink reproduces the human-readable console
// tables, JsonSink writes `results/<bench>.json` for machine diffing.
//
// Determinism contract: the main JSON file contains only seed-derived
// data, so two runs over the same grid are byte-identical regardless of
// thread count. Timing (wall-clock, thread count) goes to the separate
// `<bench>.obs.json` sidecar precisely so it cannot perturb diffs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/json.h"

namespace silence::runner {

struct Column {
  std::string name;
  int width = 12;      // table column width
  int precision = -1;  // decimals for doubles in the table; -1 = %g
};

struct SweepReport {
  std::string bench;        // file stem, e.g. "fig09_capacity"
  std::string title;        // e.g. "Fig. 9"
  std::string description;  // one line under the title
  Json grid = Json::object();  // grid metadata: axes, trials, base_seed
  std::vector<Column> columns;
  std::vector<std::vector<Json>> rows;  // one row per grid point
  std::vector<std::string> notes;  // trailing commentary (table only)
  // Timing — reported via the sidecar, never the main result file.
  int threads = 1;
  double wall_seconds = 0.0;
  std::size_t trials_run = 0;

  // Appends a row; cells must match `columns` in count and order.
  void add_row(std::vector<Json> cells);
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void write(const SweepReport& report) = 0;
};

// Human-readable aligned table on stdout (the historical bench output).
class TableSink : public ResultSink {
 public:
  void write(const SweepReport& report) override;
};

// Structured results at `path` plus the run's sidecars (write_sidecars).
class JsonSink : public ResultSink {
 public:
  explicit JsonSink(std::string path) : path_(std::move(path)) {}
  void write(const SweepReport& report) override;

  // The deterministic main-file payload for `report` (exposed for the
  // determinism regression tests).
  static Json payload(const SweepReport& report);

 private:
  std::string path_;
};

// Serializes `value` to `path` (dump() form), creating parent directories.
void write_json_file(const std::string& path, const Json& value);

// Reads and parses a JSON file; throws std::runtime_error on IO or parse
// failure. Round-trips write_json_file exactly.
Json read_json_file(const std::string& path);

// `results/foo.json` -> `results/foo.obs.json`.
std::string obs_sidecar_path(const std::string& json_path);

// Writes the observability sidecar of a run whose results live at
// `json_path`: one object at obs_sidecar_path with a `timing` section
// (bench, threads, trials_run, wall_seconds), then this process's
// `metrics` (obs::metrics_json) and `health` (obs::health::health_json)
// snapshots, each only when it holds anything. Timing and the `*.ns`
// histograms are wall-clock; every other byte is seed-deterministic and
// identical at any thread count.
void write_sidecars(const std::string& json_path, const std::string& bench,
                    int threads, std::size_t trials_run, double wall_seconds);

// Merges several write_sidecars documents (one per sweep of a campaign)
// into one of the same layout: `timing` sums trials_run and wall_seconds,
// `metrics` goes through obs::merge_metrics_json, and `health` adds the
// snapshots, so it is byte-identical to the section one process recording
// every run would have written. `metrics` and `health` appear when any
// input has them (a non-empty one). Throws std::runtime_error on a
// malformed section.
Json merge_obs_json(const std::vector<Json>& docs);

}  // namespace silence::runner

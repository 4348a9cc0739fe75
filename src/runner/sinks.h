// Pluggable result sinks for sweep reports.
//
// A bench renders its merged sweep results into a SweepReport (named
// columns + one row of JSON cells per grid point) and hands it to any
// number of sinks: TableSink reproduces the human-readable console
// tables, JsonSink writes `results/<bench>.json` for machine diffing.
//
// Determinism contract: the main JSON file contains only seed-derived
// data, so two runs over the same grid are byte-identical regardless of
// thread count. Timing (wall-clock, thread count) goes to a separate
// `<bench>.timing.json` sidecar precisely so it cannot perturb diffs.
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

// `results/foo.json` -> `results/foo.timing.json`.
std::string timing_sidecar_path(const std::string& json_path);

// `results/foo.json` -> `results/foo.metrics.json`.
std::string metrics_sidecar_path(const std::string& json_path);

// `results/foo.json` -> `results/foo.health.json` (PHY signal-health
// snapshot; see obs/health/health.h). Written only when the health
// cells recorded anything, i.e. never under SILENCE_OBS=OFF.
std::string health_sidecar_path(const std::string& json_path);

// Writes the sidecars of a run whose results live at `json_path`: the
// `.timing.json` record (bench, threads, trials_run, wall_seconds), then
// this process's metrics and health snapshots as `.metrics.json`
// (obs::metrics_json) and `.health.json`, each only when it holds
// anything. Timing and the `*.ns` histograms are wall-clock; every other
// sidecar byte is seed-deterministic and identical at any thread count.
void write_sidecars(const std::string& json_path, const std::string& bench,
                    int threads, std::size_t trials_run, double wall_seconds);

}  // namespace silence::runner

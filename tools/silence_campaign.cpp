// silence_campaign — runs a manifest of sweep benches end-to-end and
// aggregates their sidecars into one campaign dashboard JSON.
//
//   silence_campaign <manifest.json> [--dry-run]
//
// The manifest lists the sweeps of a campaign:
//
//   {
//     "campaign": "full_grid",
//     "output": "results/campaign.json",
//     "sweeps": [
//       {"name": "fig10_detection",
//        "command": ["build/bench/fig10_detection", "--trials", "200"],
//        "json": "results/fig10_detection.json"},
//       {"name": "net_scenarios",
//        "command": ["build/bench/net_scenarios"],
//        "json": "results/net_scenarios.json"}
//     ]
//   }
//
// Each sweep's command is run as a child process with `--json <json>`
// appended; within a sweep the bench's own thread pool (`--threads`)
// does the parallel work. A sweep that exits nonzero fails the whole
// campaign. Afterwards the dashboard aggregates across sweeps: counters
// summed, gauges maxed, histograms merged bucket-wise with p50/p95/p99
// recomputed from the combined buckets (runner::merge_metrics_json),
// plus per-sweep wall-clock/trial totals from the .timing.json sidecars
// and an exact integer merge of the .health.json PHY-health sidecars.
//
// Exit status: 0 = campaign complete and dashboard written; 1 = a sweep
// failed; 2 = usage/manifest error.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <spawn.h>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "obs/health/health.h"
#include "runner/json.h"
#include "runner/sinks.h"

namespace {

using silence::runner::Json;

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <manifest.json> [--dry-run]\n"
               "  runs every sweep in the manifest and writes the aggregated\n"
               "  campaign dashboard to the manifest's `output` path\n"
               "  --dry-run    print the commands without running anything\n",
               argv0);
  return code;
}

const Json& require(const Json& json, const char* key) {
  const Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("manifest: missing field '") + key +
                             "'");
  }
  return *value;
}

struct SweepEntry {
  std::string name;
  std::vector<std::string> command;
  std::string json_path;
};

struct Manifest {
  std::string campaign;
  std::string output;
  std::vector<SweepEntry> sweeps;
};

Manifest parse_manifest(const Json& root) {
  Manifest m;
  m.campaign = require(root, "campaign").as_string();
  m.output = require(root, "output").as_string();
  const Json& sweeps = require(root, "sweeps");
  if (!sweeps.is_array() || sweeps.size() == 0) {
    throw std::runtime_error("manifest: 'sweeps' must be a non-empty array");
  }
  for (const Json& entry : sweeps.as_array()) {
    SweepEntry sweep;
    sweep.name = require(entry, "name").as_string();
    const Json& command = require(entry, "command");
    if (!command.is_array() || command.size() == 0) {
      throw std::runtime_error("manifest: sweep '" + sweep.name +
                               "' needs a non-empty 'command' array");
    }
    for (const Json& arg : command.as_array()) {
      sweep.command.push_back(arg.as_string());
    }
    sweep.json_path = require(entry, "json").as_string();
    m.sweeps.push_back(std::move(sweep));
  }
  return m;
}

std::string join(const std::vector<std::string>& argv) {
  std::string line;
  for (const std::string& arg : argv) {
    if (!line.empty()) line += ' ';
    line += arg;
  }
  return line;
}

// Runs `argv` (argv[0] is the executable path; no PATH search) to
// completion with this process's environment. Returns "" on exit code 0,
// otherwise how it failed: the spawn error, the exit code or the signal.
std::string run_command(const std::vector<std::string>& argv) {
  std::vector<char*> ptrs;
  for (const std::string& arg : argv) {
    ptrs.push_back(const_cast<char*>(arg.c_str()));
  }
  ptrs.push_back(nullptr);
  pid_t pid = 0;
  const int err =
      ::posix_spawn(&pid, ptrs[0], nullptr, nullptr, ptrs.data(), environ);
  if (err != 0) return std::string("cannot run: ") + std::strerror(err);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return std::string("waitpid: ") + std::strerror(errno);
  }
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    return code == 0 ? "" : "exit code " + std::to_string(code);
  }
  return "signal " + std::to_string(WTERMSIG(status));
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      return usage(argv[0], 0);
    } else if (!std::strcmp(argv[i], "--dry-run")) {
      dry_run = true;
    } else if (manifest_path.empty()) {
      manifest_path = argv[i];
    } else {
      return usage(argv[0], 2);
    }
  }
  if (manifest_path.empty()) return usage(argv[0], 2);

  Manifest manifest;
  try {
    manifest = parse_manifest(silence::runner::read_json_file(manifest_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  std::printf("campaign '%s': %zu sweep(s)\n", manifest.campaign.c_str(),
              manifest.sweeps.size());

  Json dashboard_sweeps = Json::array();
  std::vector<Json> metric_docs;
  std::vector<Json> health_docs;
  double total_wall = 0.0;
  std::int64_t total_trials = 0;

  for (const SweepEntry& sweep : manifest.sweeps) {
    std::vector<std::string> command = sweep.command;
    command.push_back("--json");
    command.push_back(sweep.json_path);
    std::printf("[%s] %s\n", sweep.name.c_str(), join(command).c_str());
    if (dry_run) continue;

    std::fflush(stdout);  // keep our log lines ahead of the child's
    const std::string failure = run_command(command);
    if (!failure.empty()) {
      std::fprintf(stderr, "%s: sweep '%s' failed: %s\n", argv[0],
                   sweep.name.c_str(), failure.c_str());
      return 1;
    }

    Json entry = Json::object();
    entry.set("name", sweep.name);
    entry.set("json", sweep.json_path);
    try {
      const Json result = silence::runner::read_json_file(sweep.json_path);
      if (const Json* bench = result.find("bench")) {
        entry.set("bench", *bench);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: sweep '%s' wrote no readable result: %s\n",
                   argv[0], sweep.name.c_str(), e.what());
      return 1;
    }
    const std::string timing_path =
        silence::runner::timing_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(timing_path)) {
      const Json timing = silence::runner::read_json_file(timing_path);
      if (const Json* wall = timing.find("wall_seconds")) {
        entry.set("wall_seconds", *wall);
        total_wall += wall->as_double();
      }
      if (const Json* trials = timing.find("trials_run")) {
        entry.set("trials_run", *trials);
        total_trials += trials->as_int();
      }
    }
    const std::string metrics_path =
        silence::runner::metrics_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(metrics_path)) {
      metric_docs.push_back(silence::runner::read_json_file(metrics_path));
      entry.set("metrics", metrics_path);
    }
    const std::string health_path =
        silence::runner::health_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(health_path)) {
      health_docs.push_back(silence::runner::read_json_file(health_path));
      entry.set("health", health_path);
    }
    dashboard_sweeps.push_back(std::move(entry));
  }
  if (dry_run) return 0;

  Json dashboard = Json::object();
  dashboard.set("campaign", manifest.campaign);
  dashboard.set("schema_version", 1);
  dashboard.set("sweeps", std::move(dashboard_sweeps));
  Json totals = Json::object();
  totals.set("sweeps", static_cast<std::int64_t>(manifest.sweeps.size()));
  totals.set("trials_run", total_trials);
  totals.set("wall_seconds", total_wall);
  dashboard.set("totals", std::move(totals));
  // The cross-sweep metrics rollup: counters summed, histograms merged
  // with quantiles recomputed — one place to see the whole campaign's
  // pipeline counters.
  if (!metric_docs.empty()) {
    dashboard.set("metrics", silence::runner::merge_metrics_json(metric_docs));
  }
  // PHY signal-health rollup: the .health.json documents are integer-only
  // snapshots, so summing them across sweeps is exact — the campaign view
  // is the same document one process recording every sweep would write.
  if (!health_docs.empty()) {
    dashboard.set("health", silence::obs::health::merge_health_json(
                                health_docs));
  }
  silence::runner::write_json_file(manifest.output, dashboard);
  std::printf("campaign dashboard written to %s (%zu sweep(s), %lld trials, "
              "%.2f s total)\n",
              manifest.output.c_str(), manifest.sweeps.size(),
              static_cast<long long>(total_trials), total_wall);
  return 0;
}

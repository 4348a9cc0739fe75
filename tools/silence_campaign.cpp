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
// campaign. Afterwards the dashboard merges the sweeps' `<stem>.obs.json`
// sidecars with runner::merge_obs_json: wall-clock and trial totals
// summed, metrics counters summed, gauges maxed and histograms merged
// bucket-wise with p50/p95/p99 recomputed from the combined buckets, and
// an exact integer merge of the PHY-health sections.
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
  std::vector<Json> obs_docs;

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
    const std::string obs_path =
        silence::runner::obs_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(obs_path)) {
      Json doc;
      try {
        doc = silence::runner::read_json_file(obs_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: sweep '%s': %s\n", argv[0],
                     sweep.name.c_str(), e.what());
        return 1;
      }
      if (const Json* timing = doc.find("timing")) {
        for (const char* key : {"wall_seconds", "trials_run"}) {
          if (const Json* value = timing->find(key)) entry.set(key, *value);
        }
      }
      entry.set("obs", obs_path);
      obs_docs.push_back(std::move(doc));
    }
    dashboard_sweeps.push_back(std::move(entry));
  }
  if (dry_run) return 0;

  Json merged;
  try {
    merged = silence::runner::merge_obs_json(obs_docs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot merge the sweeps' sidecars: %s\n",
                 argv[0], e.what());
    return 1;
  }
  const Json& timing = *merged.find("timing");
  const std::int64_t total_trials = timing.find("trials_run")->as_int();
  const double total_wall = timing.find("wall_seconds")->as_double();

  Json dashboard = Json::object();
  dashboard.set("campaign", manifest.campaign);
  dashboard.set("schema_version", 1);
  dashboard.set("sweeps", std::move(dashboard_sweeps));
  Json totals = Json::object();
  totals.set("sweeps", static_cast<std::int64_t>(manifest.sweeps.size()));
  totals.set("trials_run", total_trials);
  totals.set("wall_seconds", total_wall);
  dashboard.set("totals", std::move(totals));
  // The cross-sweep rollups: one place to see the whole campaign's
  // pipeline counters and its PHY signal health.
  for (const char* section : {"metrics", "health"}) {
    if (const Json* value = merged.find(section)) {
      dashboard.set(section, *value);
    }
  }
  silence::runner::write_json_file(manifest.output, dashboard);
  std::printf("campaign dashboard written to %s (%zu sweep(s), %lld trials, "
              "%.2f s total)\n",
              manifest.output.c_str(), manifest.sweeps.size(),
              static_cast<long long>(total_trials), total_wall);
  return 0;
}

// Shared helpers for the figure-reproduction benches: the legacy header
// printer plus the common CLI (--threads/--trials/--json/--seed/--trace/
// --flight-dir, and the sweep-fabric flags --fabric/--shard-spec) for
// benches migrated onto the runner subsystem (src/runner/).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "fabric/fabric.h"
#include "obs/flight/flight.h"
#include "obs/obs.h"
#include "runner/executor.h"

namespace silence::bench {

inline void print_header(const char* figure, const char* description) {
  std::printf("=============================================================\n");
  std::printf("%s: %s\n", figure, description);
  std::printf("=============================================================\n");
}

// Options shared by every runner-based bench.
struct BenchArgs {
  int threads = 0;         // --threads N   (0 = hardware concurrency)
  int trials = 0;          // --trials N    (0 = the bench's default)
  std::uint64_t seed = 1;  // --seed S      (sweep base seed)
  bool json = false;       // --json [PATH] (write structured results)
  std::string json_path;   // resolved path; default results/<bench>.json
  std::string trace_path;  // --trace FILE  (Chrome trace-event JSON)
  std::string flight_dir;  // --flight-dir DIR (anomaly dump directory)
  std::size_t flight_limit = 32;  // --flight-limit N (max dumps per run)
  // Sweep fabric (src/fabric/): supervisor side.
  int fabric_workers = 0;      // --fabric N        (>1 = worker processes)
  int fabric_shards = 0;       // --fabric-shards M (0 = one per worker)
  std::string fabric_spool;    // --fabric-spool DIR
  double fabric_timeout = 0.0; // --fabric-timeout SEC (0 = none)
  int fabric_retries = 2;      // --fabric-retries N (retries per shard)
  // Worker side (the supervisor passes these when re-execing us).
  std::string shard_spec;      // --shard-spec <sweep>:<i>/<n>:<b>-<e>
  std::string shard_out;       // --shard-out FILE
  std::string self;            // argv[0], the re-exec fallback
};

// A bench-specific flag rides along in parse_bench_args: `flag` takes
// one value, `help` is a usage line, `parse` receives the value.
// A bench that shards over the fabric must append its extra flags to
// FabricConfig::passthrough_args itself so workers rebuild the same grid.
struct ExtraFlag {
  const char* flag;
  const char* help;
  std::function<void(const char* value)> parse;
};

// Parses the shared flags; exits with a usage message on --help or any
// unknown/malformed argument. `bench_name` names the default JSON path.
inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const char* bench_name,
                                  const std::vector<ExtraFlag>& extras = {}) {
  const auto usage = [&](int code) {
    std::printf(
        "usage: %s [--threads N] [--trials N] [--seed S] [--json [PATH]]\n"
        "          [--trace FILE] [--flight-dir DIR] [--flight-limit N]\n"
        "          [--fabric N] [--fabric-shards M] [--fabric-spool DIR]\n"
        "          [--fabric-timeout SEC] [--fabric-retries N]\n"
        "  --threads N   worker threads (default: all hardware threads)\n"
        "  --trials N    Monte-Carlo trials per sweep point\n"
        "  --seed S      base seed for deterministic trial seeding\n"
        "  --json [PATH] also write results/%s.json (or PATH) plus\n"
        "                .timing.json, .metrics.json and .health.json\n"
        "                sidecars\n"
        "  --trace FILE  write a Chrome/Perfetto trace (spans for every\n"
        "                PHY/CoS stage + embedded metrics snapshot)\n"
        "  --flight-dir DIR    arm the flight recorder: anomalous trials\n"
        "                (CRC fail, control miss, false alarm) dump replayable\n"
        "                artifacts into DIR (replay with tools/silence_diag)\n"
        "  --flight-limit N    cap the dump count per run (default 32)\n"
        "  --fabric N    shard the sweep over N worker processes; results\n"
        "                are byte-identical to the single-process run\n"
        "  --fabric-shards M   shards per sweep (default: one per worker)\n"
        "  --fabric-spool DIR  shard artifact spool (default: a temp dir)\n"
        "  --fabric-timeout SEC  kill + retry a worker after SEC seconds\n"
        "  --fabric-retries N  retries per shard before giving up (default 2)\n"
        "  --shard-spec/--shard-out    internal: run one shard (set by the\n"
        "                supervisor when it re-execs this binary)\n",
        argv[0], bench_name);
    for (const ExtraFlag& extra : extras) {
      std::printf("  %s  %s\n", extra.flag, extra.help);
    }
    std::exit(code);
  };
  const auto numeric_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
      usage(2);
    }
    return argv[++i];
  };

  BenchArgs args;
  args.self = argv[0];
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(0);
    } else if (!std::strcmp(argv[i], "--threads")) {
      args.threads = std::atoi(numeric_value(i));
    } else if (!std::strcmp(argv[i], "--trials")) {
      args.trials = std::atoi(numeric_value(i));
    } else if (!std::strcmp(argv[i], "--seed")) {
      args.seed = std::strtoull(numeric_value(i), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--json")) {
      args.json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.json_path = argv[++i];
      }
    } else if (!std::strcmp(argv[i], "--trace")) {
      args.trace_path = numeric_value(i);
    } else if (!std::strcmp(argv[i], "--flight-dir")) {
      args.flight_dir = numeric_value(i);
    } else if (!std::strcmp(argv[i], "--flight-limit")) {
      args.flight_limit =
          static_cast<std::size_t>(std::strtoull(numeric_value(i), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--fabric")) {
      args.fabric_workers = std::atoi(numeric_value(i));
    } else if (!std::strcmp(argv[i], "--fabric-shards")) {
      args.fabric_shards = std::atoi(numeric_value(i));
    } else if (!std::strcmp(argv[i], "--fabric-spool")) {
      args.fabric_spool = numeric_value(i);
    } else if (!std::strcmp(argv[i], "--fabric-timeout")) {
      args.fabric_timeout = std::strtod(numeric_value(i), nullptr);
    } else if (!std::strcmp(argv[i], "--fabric-retries")) {
      args.fabric_retries = std::atoi(numeric_value(i));
    } else if (!std::strcmp(argv[i], "--shard-spec")) {
      args.shard_spec = numeric_value(i);
    } else if (!std::strcmp(argv[i], "--shard-out")) {
      args.shard_out = numeric_value(i);
    } else {
      bool matched = false;
      for (const ExtraFlag& extra : extras) {
        if (!std::strcmp(argv[i], extra.flag)) {
          extra.parse(numeric_value(i));
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
        usage(2);
      }
    }
  }
  if (args.json && args.json_path.empty()) {
    args.json_path = std::string("results/") + bench_name + ".json";
  }
  if (!args.trace_path.empty()) {
#if SILENCE_OBS_ON
    silence::obs::Tracer::global().start();
#else
    std::fprintf(stderr,
                 "%s: built with SILENCE_OBS=OFF; --trace has no spans to "
                 "record and is ignored\n",
                 argv[0]);
    args.trace_path.clear();
#endif
  }
  if (!args.flight_dir.empty()) {
#if SILENCE_OBS_ON
    silence::obs::flight::DumpRouter::global().configure(args.flight_dir,
                                                         args.flight_limit);
#else
    std::fprintf(stderr,
                 "%s: built with SILENCE_OBS=OFF; --flight-dir has no events "
                 "to record and is ignored\n",
                 argv[0]);
    args.flight_dir.clear();
#endif
  }
  return args;
}

// Builds the FabricConfig for a bench from its parsed CLI flags. The
// passthrough args make every worker rebuild the identical grid
// (--seed/--trials) while splitting the requested thread budget evenly
// across workers, so `--fabric N` uses roughly the same CPU as the
// single-process run it must reproduce.
inline silence::fabric::FabricConfig fabric_config(const BenchArgs& args) {
  silence::fabric::FabricConfig config;
  config.workers = args.fabric_workers;
  config.shard_count = args.fabric_shards;
  config.spool_dir = args.fabric_spool;
  config.self = silence::fabric::self_executable_path(args.self);
  config.supervisor.timeout_seconds = args.fabric_timeout;
  config.supervisor.max_attempts = std::max(0, args.fabric_retries) + 1;
  if (!args.shard_spec.empty()) {
    config.shard = silence::fabric::ShardSpec::parse(args.shard_spec);
  }
  config.shard_out = args.shard_out;
  const int threads = silence::runner::resolve_threads(args.threads);
  const int per_worker =
      std::max(1, threads / std::max(1, args.fabric_workers));
  config.passthrough_args = {"--seed", std::to_string(args.seed),
                             "--threads", std::to_string(per_worker)};
  if (args.trials > 0) {
    config.passthrough_args.push_back("--trials");
    config.passthrough_args.push_back(std::to_string(args.trials));
  }
  return config;
}

// Call once after the sweep (before returning from main): writes the
// Chrome trace requested with --trace and reports flight-recorder dump
// activity. No-op otherwise.
inline void finish_observability(const BenchArgs& args) {
#if SILENCE_OBS_ON
  if (!args.flight_dir.empty()) {
    auto& router = silence::obs::flight::DumpRouter::global();
    std::printf("flight recorder: %zu anomaly dump(s) in %s", router.dumped(),
                args.flight_dir.c_str());
    if (router.suppressed() > 0) {
      std::printf(" (%zu suppressed by --flight-limit)", router.suppressed());
    }
    std::printf("\n");
  }
  if (args.trace_path.empty()) return;
  auto& tracer = silence::obs::Tracer::global();
  const std::size_t events = tracer.event_count();
  const std::size_t dropped = tracer.dropped();
  tracer.write(args.trace_path);
  std::printf("trace written to %s (%zu events%s) — open in "
              "ui.perfetto.dev or chrome://tracing\n",
              args.trace_path.c_str(), events,
              dropped > 0
                  ? (", " + std::to_string(dropped) + " dropped").c_str()
                  : "");
#else
  (void)args;
#endif
}

}  // namespace silence::bench

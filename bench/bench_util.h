// Shared helpers for the figure-reproduction benches: the legacy header
// printer plus the common CLI (--threads/--trials/--json/--seed/--trace/
// --flight-dir) for benches migrated onto the runner subsystem
// (src/runner/).
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "obs/flight/flight.h"
#include "obs/obs.h"

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
};

// A bench-specific flag rides along in parse_bench_args: `flag` takes
// one value, `help` is a usage line, `parse` receives the value.
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
        "  --threads N   worker threads (default: all hardware threads)\n"
        "  --trials N    Monte-Carlo trials per sweep point\n"
        "  --seed S      base seed for deterministic trial seeding\n"
        "  --json [PATH] also write results/%s.json (or PATH) plus\n"
        "                its .obs.json sidecar (timing, metrics, health)\n"
        "  --trace FILE  write a Chrome/Perfetto trace (spans for every\n"
        "                PHY/CoS stage + embedded metrics snapshot)\n"
        "  --flight-dir DIR    arm the flight recorder: anomalous trials\n"
        "                (CRC fail, control miss, false alarm) dump replayable\n"
        "                artifacts into DIR (replay with tools/silence_diag)\n"
        "  --flight-limit N    cap the dump count per run (default 32)\n",
        argv[0], bench_name);
    for (const ExtraFlag& extra : extras) {
      std::printf("  %s  %s\n", extra.flag, extra.help);
    }
    std::exit(code);
  };
  const auto flag_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
      usage(2);
    }
    return argv[++i];
  };
  // A count flag takes decimal digits only, at most `max`: an empty
  // value, a sign, blanks or trailing junk exit 2 instead of reading as
  // 0, as a prefix, or (strtoull's "-1") as 2^64-1.
  const auto count_value = [&](int& i, std::uint64_t max) -> std::uint64_t {
    const char* flag = argv[i];
    const char* text = flag_value(i);
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || v > max) {
      std::fprintf(stderr, "%s: bad value '%s' for %s (want an integer in "
                   "0..%llu)\n", argv[0], text, flag,
                   static_cast<unsigned long long>(max));
      usage(2);
    }
    return v;
  };

  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(0);
    } else if (!std::strcmp(argv[i], "--threads")) {
      args.threads = static_cast<int>(count_value(i, INT_MAX));
    } else if (!std::strcmp(argv[i], "--trials")) {
      args.trials = static_cast<int>(count_value(i, INT_MAX));
    } else if (!std::strcmp(argv[i], "--seed")) {
      args.seed = count_value(i, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--json")) {
      args.json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.json_path = argv[++i];
      }
    } else if (!std::strcmp(argv[i], "--trace")) {
      args.trace_path = flag_value(i);
    } else if (!std::strcmp(argv[i], "--flight-dir")) {
      args.flight_dir = flag_value(i);
    } else if (!std::strcmp(argv[i], "--flight-limit")) {
      args.flight_limit = static_cast<std::size_t>(count_value(i, SIZE_MAX));
    } else {
      bool matched = false;
      for (const ExtraFlag& extra : extras) {
        if (!std::strcmp(argv[i], extra.flag)) {
          extra.parse(flag_value(i));
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

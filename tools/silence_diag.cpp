// silence_diag — replays a flight-recorder anomaly dump bit-exactly.
//
//   silence_diag <dump.flight.json> [--events] [--out replay.json]
//
// Reads the artifact written by a bench run with --flight-dir, rebuilds
// the trial from its embedded (spec, seed), re-runs the full
// TX -> channel -> RX -> detection -> EVD pipeline under a fresh flight
// recording, and compares the replayed artifact against the dump:
// identical seed, spec, result digest (RX bits, detector confusion
// counts) and — in SILENCE_OBS=ON builds — every recorded event,
// double payloads compared by exact bit pattern.
//
// Exit status: 0 = bit-identical replay, 1 = mismatch, 2 = usage/input
// error. `--events` additionally prints every event of the replay;
// `--out` writes the replayed artifact for external diffing.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/flight/flight.h"
#include "runner/sinks.h"
#include "sim/trial.h"

namespace {

using silence::CosTrialResult;
using silence::CosTrialSpec;
using silence::runner::Json;
namespace flight = silence::obs::flight;

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <dump.flight.json> [--events] [--out FILE]\n"
               "  replays a flight-recorder anomaly dump from its embedded\n"
               "  (spec, seed) and verifies the replay is bit-identical\n"
               "  --events    print every replayed flight event\n"
               "  --out FILE  write the replayed artifact to FILE\n",
               argv0);
  return code;
}

const Json* field(const Json& root, const char* key) {
  return root.is_object() ? root.find(key) : nullptr;
}

std::string string_field(const Json& root, const char* key) {
  const Json* value = field(root, key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string();
}

std::int64_t int_field(const Json& root, const char* key) {
  const Json* value = field(root, key);
  return value != nullptr && value->is_int() ? value->as_int() : 0;
}

void print_events(const std::vector<flight::Event>& events) {
  std::printf("  %-18s %6s %6s %16s %16s %12s\n", "stage", "sym", "sc", "a",
              "b", "u");
  for (const flight::Event& e : events) {
    std::printf("  %-18s %6d %6d %16.8g %16.8g %12" PRIu64 "\n", e.stage,
                e.symbol, e.subcarrier, e.a, e.b, e.u);
  }
}

void print_stage_summary(const std::vector<flight::Event>& events) {
  // Insertion-ordered per-stage counts: the pipeline order is the order
  // stages first appear in the recording.
  std::vector<std::pair<const char*, std::size_t>> stages;
  for (const flight::Event& e : events) {
    bool found = false;
    for (auto& [name, count] : stages) {
      if (std::strcmp(name, e.stage) == 0) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) stages.emplace_back(e.stage, 1);
  }
  for (const auto& [name, count] : stages) {
    std::printf("    %-18s %zu event(s)\n", name, count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dump_path;
  std::string out_path;
  bool show_events = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      return usage(argv[0], 0);
    } else if (!std::strcmp(argv[i], "--events")) {
      show_events = true;
    } else if (!std::strcmp(argv[i], "--out")) {
      if (i + 1 >= argc) return usage(argv[0], 2);
      out_path = argv[++i];
    } else if (dump_path.empty()) {
      dump_path = argv[i];
    } else {
      return usage(argv[0], 2);
    }
  }
  if (dump_path.empty()) return usage(argv[0], 2);

  Json dump;
  Json recorded_spec;
  CosTrialSpec spec;
  std::uint64_t seed = 0;
  flight::TrialLabel label;
  try {
    dump = silence::runner::read_json_file(dump_path);
    if (string_field(dump, "kind") != "cos_flight_recording") {
      throw std::runtime_error("not a cos_flight_recording artifact");
    }
    if (int_field(dump, "schema_version") != flight::kFlightSchemaVersion) {
      throw std::runtime_error(
          "unsupported schema_version " +
          std::to_string(int_field(dump, "schema_version")));
    }
    const Json* spec_json = field(dump, "spec");
    if (spec_json == nullptr) throw std::runtime_error("missing 'spec'");
    recorded_spec = *spec_json;
    spec = CosTrialSpec::from_json(*spec_json);
    seed = flight::seed_from_string(string_field(dump, "seed"));
    label.sweep = string_field(dump, "sweep");
    label.point_index = static_cast<std::size_t>(int_field(dump, "point_index"));
    label.trial_index = static_cast<std::size_t>(int_field(dump, "trial_index"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], dump_path.c_str(), e.what());
    return 2;
  }

  std::printf("replaying %s\n", dump_path.c_str());
  std::printf("  sweep %s point %zu trial %zu seed %s\n", label.sweep.c_str(),
              label.point_index, label.trial_index,
              flight::seed_to_string(seed).c_str());
  if (const Json* anomalies = field(dump, "anomalies");
      anomalies != nullptr && anomalies->is_array()) {
    std::printf("  recorded anomalies:");
    for (const Json& reason : anomalies->as_array()) {
      std::printf(" %s", reason.as_string().c_str());
    }
    std::printf("\n");
  }

  // The replay: same spec, same seed, fresh recording. The trial's
  // outcome is a pure function of (spec, seed), so every stage below
  // must reproduce the dump exactly. The recording keeps the dump's spec
  // JSON verbatim, so the byte comparison below checks only what the
  // replay produced.
  flight::TrialRecording rec(label, seed, recorded_spec);
  const CosTrialResult result = silence::run_cos_trial_recorded(spec, seed);
  // In SILENCE_OBS=OFF builds the in-trial hook is compiled out; setting
  // the digest here is idempotent under ON (same value, same bytes).
  rec.set_result(result.summary());

  const std::vector<flight::Event> events = rec.events();
  std::printf("\nreplayed pipeline (%zu flight events):\n", events.size());
  print_stage_summary(events);
  if (show_events) print_events(events);

  std::printf("\nreplayed outcome:\n");
  std::printf("  usable=%d crc_ok=%d control_ok=%d\n", result.usable,
              result.crc_ok, result.control_ok);
  std::printf("  control bits: sent %zu, recovered %zu\n",
              result.control_bits_sent, result.control_bits_recovered);
  std::printf("  detection: active=%zu silent=%zu fp=%zu fn=%zu\n",
              result.detection.active, result.detection.silent,
              result.detection.false_pos, result.detection.false_neg);

  const Json replayed = rec.artifact();
  if (!out_path.empty()) {
    silence::runner::write_json_file(out_path, replayed);
    std::printf("replayed artifact written to %s\n", out_path.c_str());
  }

#if !SILENCE_OBS_ON
  // Without instrumentation the replay regenerates no events; compare
  // the outcome digest only.
  const Json* expected_result = field(dump, "result");
  const Json* actual_result = field(replayed, "result");
  if (expected_result == nullptr || actual_result == nullptr ||
      expected_result->dump_compact() != actual_result->dump_compact()) {
    std::printf("\nMISMATCH: result digest differs "
                "(built with SILENCE_OBS=OFF; events not compared)\n");
    return 1;
  }
  std::printf("\nOK: result digest matches (built with SILENCE_OBS=OFF; "
              "events not compared)\n");
  return 0;
#else
  std::string diff;
  if (!flight::compare_artifacts(dump, replayed, &diff)) {
    std::printf("\nMISMATCH: %s\n", diff.c_str());
    return 1;
  }
  std::printf("\nOK: replay is bit-identical to the dump "
              "(%zu events, result digest, seed, spec)\n",
              events.size());
  return 0;
#endif
}

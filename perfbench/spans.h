// Per-span self-time from one obs::Tracer capture.
//
// The library records OBS_SPAN scopes (phy.*, cos.*, chan.*, sim.*,
// runner.*); the benchmark adds its own spans around the public calls it
// makes (net.init, net.run, net.result, runner.setup, sim.trial). With the
// tracer active every span becomes a B/E pair on its thread's track, so
// nesting is exact: a span's self time is its duration minus the part its
// direct children cover, and self times over all spans of a thread sum
// to the time its outermost spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

struct SpanTotals {
  double incl_s = 0.0;  // summed durations
  double self_s = 0.0;  // summed durations minus nested children
  std::uint64_t count = 0;
};

struct SpanProfile {
  std::map<std::string, SpanTotals, std::less<>> spans;
  // Time covered by outermost spans on threads other than the one that
  // began the capture (runner workers).
  double other_covered_s = 0.0;
  std::uint64_t dropped_events = 0;

  SpanProfile& operator+=(const SpanProfile& o);

  double incl(std::string_view name) const;
  double self(std::string_view name) const;
  // Summed self time of every span whose name starts with `prefix`.
  double self_prefix(std::string_view prefix) const;
  std::uint64_t count_prefix(std::string_view prefix) const;
};

// Starts a capture on the global tracer. The network engine's simulated
// MAC timeline is kept off, so the capture holds wall-clock spans only.
void capture_begin();

// Stops the capture and computes the profile.
SpanProfile capture_end();

}  // namespace perfbench

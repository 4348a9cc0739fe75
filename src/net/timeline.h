// MAC-timeline instrumentation for run_scenario: one named simulation
// track per station plus the shared medium, rendered under pid 2 of the
// Chrome/Perfetto trace (obs/trace.h), with timestamps in deterministic
// simulated microseconds. A second helper interns per-station registry
// histograms (net.sta.NN.*) so the sidecar's `metrics` section carries
// per-station latency percentiles next to the aggregate ones.
//
// Exactly one scenario per capture owns the simulation timeline (the
// first run_scenario to claim it); a single-scenario run — the CI smoke
// uses --stas 16 --trials 1 — therefore produces a bit-stable timeline
// at any thread count. Everything here compiles to inert no-ops under
// SILENCE_OBS=OFF: `on()` is constant false, so call sites guarded by
// `if (timeline.on())` fold away and never build their args strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace silence::net {

#if SILENCE_OBS_ON

class Timeline {
 public:
  // One medium track per BSS: the single-AP track keeps its historic
  // "medium" name, multi-AP scenarios get "AP<k> medium" so overlapping
  // PPDUs on different cells render as parallel busy spans.
  explicit Timeline(std::size_t num_stations, std::size_t num_bss = 1) {
    auto& tracer = obs::Tracer::global();
    if (!tracer.claim_sim_session()) return;
    on_ = true;
    medium_.reserve(num_bss);
    for (std::size_t b = 0; b < num_bss; ++b) {
      medium_.push_back(tracer.sim_track(
          num_bss == 1 ? std::string("medium")
                       : "AP" + std::to_string(b) + " medium"));
    }
    sta_.reserve(num_stations);
    for (std::size_t i = 0; i < num_stations; ++i) {
      sta_.push_back(tracer.sim_track("STA " + std::to_string(i)));
    }
  }

  bool on() const { return on_; }

  void sta_begin(std::size_t i, const char* name, double ts_us,
                 std::string args = "") {
    if (on_) {
      obs::Tracer::global().sim_begin(sta_[i], name, ts_us, std::move(args));
    }
  }
  void sta_end(std::size_t i, const char* name, double ts_us) {
    if (on_) obs::Tracer::global().sim_end(sta_[i], name, ts_us);
  }
  void sta_instant(std::size_t i, const char* name, double ts_us,
                   std::string args = "") {
    if (on_) {
      obs::Tracer::global().sim_instant(sta_[i], name, ts_us,
                                        std::move(args));
    }
  }
  void medium_begin(std::size_t bss, const char* name, double ts_us,
                    std::string args = "") {
    if (on_) {
      obs::Tracer::global().sim_begin(medium_[bss], name, ts_us,
                                      std::move(args));
    }
  }
  void medium_end(std::size_t bss, const char* name, double ts_us) {
    if (on_) obs::Tracer::global().sim_end(medium_[bss], name, ts_us);
  }

 private:
  bool on_ = false;
  std::vector<std::uint32_t> medium_;
  std::vector<std::uint32_t> sta_;
};

// Per-station registry metrics, interned once per scenario. Stations
// below the cap (kDefaultCap in every NetSim; tests pass smaller ones)
// get their own net.sta.NN.* family; stations past the cap fold into the
// shared net.sta.overflow.* family instead of being dropped, so totals
// stay complete while the registry's fixed histogram capacity
// (obs::kMaxHistograms) stays bounded: a cap of C interns at most
// 3*C + 3 histograms and C + 1 counters.
class StationMetrics {
 public:
  static constexpr std::size_t kDefaultCap = 64;

  explicit StationMetrics(std::size_t num_stations,
                          std::size_t cap = kDefaultCap) {
    auto& reg = obs::Registry::global();
    const std::size_t tracked = num_stations < cap ? num_stations : cap;
    const int width = label_width(cap);
    hol_.reserve(tracked);
    gap_.reserve(tracked);
    bits_.reserve(tracked);
    coll_.reserve(tracked);
    for (std::size_t i = 0; i < tracked; ++i) {
      const std::string base = "net.sta." + station_label(i, width);
      hol_.push_back(reg.histogram_id(base + ".hol_wait_slots"));
      gap_.push_back(reg.histogram_id(base + ".inter_tx_gap_slots"));
      bits_.push_back(reg.histogram_id(base + ".tx_data_bits"));
      coll_.push_back(reg.counter_id(base + ".collisions"));
    }
    // Overflow family interned only when the cap is actually exceeded,
    // so sub-cap runs keep their exact per-station metric inventory.
    if (num_stations > tracked) {
      overflow_ = true;
      over_hol_ = reg.histogram_id("net.sta.overflow.hol_wait_slots");
      over_gap_ = reg.histogram_id("net.sta.overflow.inter_tx_gap_slots");
      over_bits_ = reg.histogram_id("net.sta.overflow.tx_data_bits");
      over_coll_ = reg.counter_id("net.sta.overflow.collisions");
    }
  }

  // Zero-pad width for station indices under `cap`: the digit count of
  // the largest index, floored at 2 for compatibility with the historic
  // "%02zu" labels ("net.sta.02" < "net.sta.10" lexicographically).
  static int label_width(std::size_t cap);

  // Zero-padded station index at the given width.
  static std::string station_label(std::size_t i, int width = 2);

  void hol_wait(std::size_t i, std::uint64_t slots) {
    if (i < hol_.size()) {
      obs::Registry::global().histogram_record(hol_[i], slots);
    } else if (overflow_) {
      obs::Registry::global().histogram_record(over_hol_, slots);
    }
  }
  void tx_gap(std::size_t i, std::uint64_t slots) {
    if (i < gap_.size()) {
      obs::Registry::global().histogram_record(gap_[i], slots);
    } else if (overflow_) {
      obs::Registry::global().histogram_record(over_gap_, slots);
    }
  }
  void tx_data_bits(std::size_t i, std::uint64_t bits) {
    if (i < bits_.size()) {
      obs::Registry::global().histogram_record(bits_[i], bits);
    } else if (overflow_) {
      obs::Registry::global().histogram_record(over_bits_, bits);
    }
  }
  void collision(std::size_t i) {
    if (i < coll_.size()) {
      obs::Registry::global().counter_add(coll_[i], 1);
    } else if (overflow_) {
      obs::Registry::global().counter_add(over_coll_, 1);
    }
  }

 private:
  std::vector<std::uint32_t> hol_;
  std::vector<std::uint32_t> gap_;
  std::vector<std::uint32_t> bits_;
  std::vector<std::uint32_t> coll_;
  bool overflow_ = false;
  std::uint32_t over_hol_ = 0;
  std::uint32_t over_gap_ = 0;
  std::uint32_t over_bits_ = 0;
  std::uint32_t over_coll_ = 0;
};

#else  // SILENCE_OBS_ON

class Timeline {
 public:
  explicit Timeline(std::size_t, std::size_t = 1) {}
  bool on() const { return false; }
  void sta_begin(std::size_t, const char*, double, std::string = "") {}
  void sta_end(std::size_t, const char*, double) {}
  void sta_instant(std::size_t, const char*, double, std::string = "") {}
  void medium_begin(std::size_t, const char*, double, std::string = "") {}
  void medium_end(std::size_t, const char*, double) {}
};

class StationMetrics {
 public:
  static constexpr std::size_t kDefaultCap = 64;
  explicit StationMetrics(std::size_t, std::size_t = kDefaultCap) {}
  static int label_width(std::size_t cap);
  static std::string station_label(std::size_t i, int width = 2);
  void hol_wait(std::size_t, std::uint64_t) {}
  void tx_gap(std::size_t, std::uint64_t) {}
  void tx_data_bits(std::size_t, std::uint64_t) {}
  void collision(std::size_t) {}
};

#endif  // SILENCE_OBS_ON

inline int StationMetrics::label_width(std::size_t cap) {
  int width = 1;
  for (std::size_t v = cap > 0 ? cap - 1 : 0; v >= 10; v /= 10) ++width;
  return width < 2 ? 2 : width;
}

inline std::string StationMetrics::station_label(std::size_t i, int width) {
  std::string label = std::to_string(i);
  if (label.size() < static_cast<std::size_t>(width)) {
    label.insert(0, static_cast<std::size_t>(width) - label.size(), '0');
  }
  return label;
}

}  // namespace silence::net

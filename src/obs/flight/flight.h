// Per-trial flight recorder: a black box for the rare events CoS
// correctness lives in (a missed silence symbol, a false-alarm detection,
// a CRC failure after erasure recovery).
//
// Hot paths append compact fixed-size events — channel taps, per-
// subcarrier CSI, detector score vs. threshold, Viterbi corrected-bit
// counts, interval decode outcomes — through the FLIGHT_EVENT macro into
// the calling thread's active TrialRecording, a bounded ring buffer that
// evicts its oldest events on overflow. A clean trial discards the ring
// on scope exit; when an anomaly predicate fires (CRC fail, control
// miss, false alarm, or an explicit trigger()) the harness routes the
// recording through the DumpRouter, which writes a self-contained JSON
// artifact including the trial's SplitMix64 seed and replay spec.
// `tools/silence_diag` replays such an artifact bit-exactly.
//
// Cost model: with no active recording a FLIGHT_EVENT is one thread-local
// pointer load; recording itself is a bounds check plus a 40-byte store.
// Building with -DSILENCE_OBS=OFF compiles every FLIGHT_EVENT site to
// nothing (same contract as the obs/obs.h macros); the runtime classes
// below still build so tooling links either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/obs.h"  // defines SILENCE_OBS_ON
#include "runner/json.h"

namespace silence::obs::flight {

inline constexpr int kFlightSchemaVersion = 1;

// Default ring capacity: a fig10-sized trial (48 symbols x 8 control
// subcarriers of detector scores plus CSI/taps/plan/outcome events) fits
// with headroom; longer trials keep their newest ~8k events.
inline constexpr std::size_t kDefaultFlightCapacity = 8192;

// Marks the symbol/subcarrier fields of events they don't apply to.
inline constexpr std::int32_t kNoIndex = -1;

// One recorded event. `stage` must be a string literal (stored by
// pointer, never freed); the payload fields are stage-specific and
// documented at each instrumentation site (docs/ARCHITECTURE.md,
// "Forensics & replay").
struct Event {
  const char* stage = "";
  std::int32_t symbol = kNoIndex;      // OFDM symbol index
  std::int32_t subcarrier = kNoIndex;  // logical data subcarrier / tap
  double a = 0.0;
  double b = 0.0;
  std::uint64_t u = 0;
};

// Where a trial sits in its sweep — the coordinates that, with the base
// spec, make the dump filename unique across concurrent sweeps.
struct TrialLabel {
  std::string sweep;  // sweep/bench name, e.g. "fig10_detection.b"
  std::size_t point_index = 0;
  std::size_t trial_index = 0;
};

// RAII recording scope. Constructing installs the recording as the
// calling thread's active one (restoring any outer recording on
// destruction), so instrumentation sites need no plumbing — they hit the
// thread-local through FLIGHT_EVENT. A recording is single-threaded by
// design: one trial runs on one worker thread.
class TrialRecording {
 public:
  TrialRecording(TrialLabel label, std::uint64_t seed, runner::Json spec,
                 std::size_t capacity = kDefaultFlightCapacity);
  ~TrialRecording();
  TrialRecording(const TrialRecording&) = delete;
  TrialRecording& operator=(const TrialRecording&) = delete;

  // The calling thread's active recording, or nullptr.
  static TrialRecording* active();

  // Appends to the ring, evicting the oldest event when full.
  void record(const Event& event);

  // Flags an anomaly (idempotent per reason). Any flagged reason makes
  // the recording eligible for dumping.
  void trigger(std::string_view reason);
  bool triggered() const { return !reasons_.empty(); }
  const std::vector<std::string>& reasons() const { return reasons_; }

  // Harness-provided outcome summary embedded in the artifact (decoded
  // PSDU digest, confusion counts, ...). Opaque to the recorder.
  void set_result(runner::Json result) { result_ = std::move(result); }

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  std::size_t evicted() const { return evicted_; }
  const TrialLabel& label() const { return label_; }
  std::uint64_t seed() const { return seed_; }

  // Events oldest-to-newest (unwraps the ring).
  std::vector<Event> events() const;

  // The self-contained dump: schema version, label, seed (hex string —
  // JSON integers cannot hold a full uint64), anomaly reasons, replay
  // spec, result summary, and every held event.
  runner::Json artifact() const;

 private:
  TrialLabel label_;
  std::uint64_t seed_;
  runner::Json spec_;
  runner::Json result_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // slot the next event goes to
  std::size_t count_ = 0;
  std::size_t evicted_ = 0;
  std::vector<std::string> reasons_;
  TrialRecording* outer_;  // restored on destruction
};

// Renders a trial seed as the artifact's "seed" string ("0x%016x" form)
// and parses it back. parse throws std::runtime_error on malformed input.
std::string seed_to_string(std::uint64_t seed);
std::uint64_t seed_from_string(std::string_view text);

// Compares two artifacts for bit-identical replay: schema, seed, spec,
// result and every event (double payloads compared by exact bit pattern
// via the deterministic serializer). On mismatch returns false and, when
// `diff` is non-null, stores a one-line description of the first
// difference.
bool compare_artifacts(const runner::Json& expected,
                       const runner::Json& actual, std::string* diff);

// Routes triggered recordings to disk. Configured once per process (from
// --flight-dir/--flight-limit); route() is safe to call from worker
// threads, and filenames are unique by construction:
//
//   <dir>/<sweep>__p<point>__t<trial>__s<seed-hex16>.flight.json
//
// (sweep sanitized to [A-Za-z0-9._-]), so concurrent sweeps and trials
// can never collide. The budget keeps the `limit` lowest (sweep, point,
// trial, seed) keys, whatever order trials finish in: when a lower key
// arrives at a full budget, the highest kept dump's file is removed. So
// the set of files, like their bytes, does not depend on thread timing.
class DumpRouter {
 public:
  static DumpRouter& global();

  void configure(std::string dir, std::size_t limit);
  void disable();
  bool enabled() const;
  std::string dir() const;

  // Writes `rec.artifact()` if the recording is triggered, routing is
  // enabled and its key is among the `limit` lowest routed so far.
  // Returns the path written (which a lower key routed later may
  // remove), or "" when skipped.
  std::string route(const TrialRecording& rec);

  // Dump filename (not the full path) for a label + seed; exposed so
  // tests can pin the naming scheme.
  static std::string dump_name(const TrialLabel& label, std::uint64_t seed);

  // Dumps on disk, and triggered recordings routed but not kept (skipped
  // or removed), since configure().
  std::size_t dumped() const { return dumped_.load(std::memory_order_relaxed); }
  std::size_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  DumpRouter() = default;

  using Key = std::tuple<std::string, std::size_t, std::size_t, std::uint64_t>;
  bool keeps(const Key& key) const;  // with mutex_ held

  mutable std::mutex mutex_;  // guards dir_, limit_, kept_ and the files
  std::string dir_;
  std::size_t limit_ = 0;
  std::map<Key, std::string> kept_;  // key -> path of its dump
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> dumped_{0};
  std::atomic<std::size_t> suppressed_{0};
};

}  // namespace silence::obs::flight

// The instrumentation-site macro. Arguments: stage literal, symbol index,
// subcarrier index (kNoIndex when not applicable), two double payloads
// and one integer payload. Compiles to nothing under SILENCE_OBS=OFF or
// per-TU SILENCE_OBS_FORCE_OFF.
#if SILENCE_OBS_ON

#define FLIGHT_EVENT(stage, symbol, subcarrier, a, b, u)                  \
  do {                                                                    \
    ::silence::obs::flight::TrialRecording* flight_rec_ =                 \
        ::silence::obs::flight::TrialRecording::active();                 \
    if (flight_rec_ != nullptr) {                                         \
      flight_rec_->record(::silence::obs::flight::Event{                  \
          (stage), static_cast<std::int32_t>(symbol),                     \
          static_cast<std::int32_t>(subcarrier),                          \
          static_cast<double>(a), static_cast<double>(b),                 \
          static_cast<std::uint64_t>(u)});                                \
    }                                                                     \
  } while (0)

#else  // SILENCE_OBS_ON

#define FLIGHT_EVENT(stage, symbol, subcarrier, a, b, u)                  \
  do {                                                                    \
    (void)sizeof(symbol);                                                 \
    (void)sizeof(subcarrier);                                             \
    (void)sizeof(a);                                                      \
    (void)sizeof(b);                                                      \
    (void)sizeof(u);                                                      \
  } while (0)

#endif  // SILENCE_OBS_ON

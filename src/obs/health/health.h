// PHY signal-health aggregation: deterministic per-subcarrier waterfalls,
// the detector score stream split by ground truth, and the silence-plan
// audit counters (paper Eq. 1/2, §III-B/C/D quantities).
//
// The cells are a fixed tail of the one metrics registry (obs/metrics.h):
// 15 audit counters and 241 histograms (3 waterfall kinds x 48
// subcarriers, 2 ground truths x 48 detector cells, one nabla-EVM drift
// cell) at compile-time ids past the named ones. Named histograms are
// interned and capped at 512, too few for these 48-wide rows next to the
// per-station net.sta.* families, so health never interns: health.cpp
// maps each (enum, subcarrier) to its fixed id, and the cells stay out of
// Registry::snapshot() and the sidecar's `metrics` section. Like every
// registry cell they are unsigned integers in per-thread blocks, so
// merging blocks, or a campaign's sidecars, is exact and byte-identical
// at any thread count.
//
// All recorded values are fixed-point quantizations (scales below); the
// detector score additionally carries its decision in the quantization:
// quantize_score() clamps scores of declared-silent cells to <= 255 and
// declared-active cells to >= 256. Because 256 = 2^8 is a power-of-two
// bucket boundary, the per-truth score histograms answer "how many cells
// were declared silent at the configured threshold" EXACTLY — summing
// buckets 0..8 of the silent-truth histogram gives the detected-silence
// count, and the empirical ROC derived from the buckets reproduces
// count_confusion()'s miss/false-alarm tallies bit-for-bit at score 256.
//
// Building with SILENCE_OBS=OFF compiles every HEALTH_* macro to nothing,
// so the snapshot stays empty and the sidecar has no `health` section;
// the functions still link for the runner's sidecar plumbing and the
// tools.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"  // HistogramSnapshot, histogram_bucket
#include "obs/obs.h"      // SILENCE_OBS_ON
#include "runner/json.h"

namespace silence::obs::health {

// Logical data subcarriers per OFDM symbol (== kNumDataSubcarriers; kept
// as a local constant so the obs layer does not depend on phy headers).
inline constexpr std::size_t kSubcarriers = 48;

// Fixed-point scales. Every recorded value is round-down quantized.
inline constexpr double kSnrScale = 256.0;      // linear bin SNR x 256
inline constexpr double kEvmScale = 4096.0;     // EVM (rms fraction) x 4096
inline constexpr double kChanScale = 1024.0;    // |H_k| x 1024
inline constexpr double kScoreScale = 256.0;    // energy / threshold x 256
inline constexpr double kNablaEvmScale = 4096.0;  // nabla-EVM x 4096

// The detector's decision boundary in quantized score units: scores below
// 256 were declared silent. A power-of-two, so it is also a histogram
// bucket boundary (buckets 0..8 hold exactly the values 0..255).
inline constexpr std::uint64_t kScoreThreshold = 256;

// Per-subcarrier waterfall families.
enum class Waterfall : std::size_t {
  kSnr = 0,      // raw bin SNR |H_k|^2 / noise_var, from the front end
  kEvm,          // post-CRC per-subcarrier EVM, from cos_receive
  kChanMag,      // channel-estimate magnitude |H_k|, from the front end
  kCount,
};

// Ground-truth label of a detector score (known only in simulation).
enum class Truth : std::size_t { kActive = 0, kSilent, kCount };

// Silence-plan / detection / selection audit counters. Their sidecar
// names follow the dotted scheme of the metrics registry.
enum class Counter : std::size_t {
  // plan_silences(): messages planned into transmit grids.
  kPlans = 0,
  kIntervalsPlanned,
  kSilencesPlanned,
  kBitsPlanned,
  // Interval decode (cos_receive / run_cos_trial_recorded).
  kDecodeRounds,
  kIntervalsDetected,
  kBitsDecoded,
  // Subcarrier selection after a decoded packet (cos_receive).
  kSelectionRounds,
  kSubcarriersSelected,
  kSubcarriersDetectable,
  kSubcarriersErroneous,  // EVM > D_m/2 of the next modulation
  // Ground-truth confusion, tallied in the sim layer from the exact same
  // cell walk that feeds the per-truth score histograms (and therefore in
  // 1:1 correspondence with count_confusion()).
  kTruthActive,
  kTruthSilent,
  kFalseAlarms,  // truth active, declared silent
  kMisses,       // truth silent, declared active
  kCount,
};

// Merged view of the fixed cells. Integer-only, so operator+= (used by
// the campaign merge, runner::merge_obs_json) is exact and
// order-independent. Cells are unnamed obs::HistogramSnapshots.
struct HealthSnapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};
  // waterfalls[kind][subcarrier]
  std::array<std::array<HistogramSnapshot, kSubcarriers>,
             static_cast<std::size_t>(Waterfall::kCount)>
      waterfalls{};
  // scores[truth][subcarrier]
  std::array<std::array<HistogramSnapshot, kSubcarriers>,
             static_cast<std::size_t>(Truth::kCount)>
      scores{};
  HistogramSnapshot nabla_evm{};

  bool empty() const;
  HealthSnapshot& operator+=(const HealthSnapshot& o);
  friend bool operator==(const HealthSnapshot&,
                         const HealthSnapshot&) = default;
};

// Hot-path recording into the fixed tail of obs::Registry::global().
// Wait-free: relaxed load+store pairs on the calling thread's block.
// `subcarrier` outside [0, 48) is ignored.
void count(Counter c, std::uint64_t delta);
void waterfall(Waterfall kind, std::size_t subcarrier, std::uint64_t value);
void score(Truth truth, std::size_t subcarrier, std::uint64_t value);
void record_nabla_evm(std::uint64_t value);

// Deterministic merged view of the fixed cells; safe to call while other
// threads record. obs::Registry::global().reset() zeroes them.
HealthSnapshot snapshot();

// --- Quantization helpers (pure; usable in both ON and OFF builds) -----

// Round-down fixed-point quantization, clamped to [0, 2^52] so every
// quantized value survives a double-typed JSON round trip exactly.
std::uint64_t quantize(double value, double scale);

// Detector score in units of 1/256 of the threshold, with the DECISION
// clamped into the quantization: a declared-silent cell (energy below the
// threshold) never quantizes above 255, a declared-active cell never
// below 256. This removes the floating-point edge where energy/threshold
// rounds across the boundary, making histogram-derived detection counts
// at score 256 exactly equal to the mask-derived ones.
std::uint64_t quantize_score(double energy, double threshold);

// --- JSON rendering ----------------------------------------------------

// Renders a snapshot as the sidecar's `health` section (schema
// "cos.health.v1"): counters keyed by name, one obs::histogram_json cell
// per waterfall subcarrier and per detector (truth, subcarrier) cell.
// Integer-only and deterministically ordered, so equal snapshots render
// equal bytes.
runner::Json health_json(const HealthSnapshot& snapshot);

// Exact inverse of health_json (zero-count cells round-trip to empty).
// Throws std::runtime_error on a malformed document.
HealthSnapshot health_from_json(const runner::Json& doc);

// --- Perfetto counter sampling -----------------------------------------

// When the tracer is active, every kTraceSampleEvery-th call emits the
// pid-3 "phy-health" counter tracks (mean EVM, mean detector margin,
// selected subcarriers per selection round) from the current snapshot.
// Cheap no-op when tracing is off; call once per trial / scenario.
inline constexpr std::uint64_t kTraceSampleEvery = 256;
void maybe_trace_counters();

}  // namespace silence::obs::health

// --- Instrumentation macros --------------------------------------------
//
// The only health API hot paths touch. Enum arguments, so there is no
// name interning; OFF builds compile each to a `(void)sizeof` no-op that
// keeps operands used but unevaluated.

#if SILENCE_OBS_ON

#define HEALTH_COUNT_N(counter, n)                                       \
  ::silence::obs::health::count(                                         \
      ::silence::obs::health::Counter::counter,                          \
      static_cast<std::uint64_t>(n))
#define HEALTH_COUNT(counter) HEALTH_COUNT_N(counter, 1)
#define HEALTH_WATERFALL(kind, subcarrier, value)                        \
  ::silence::obs::health::waterfall(                                     \
      ::silence::obs::health::Waterfall::kind,                           \
      static_cast<std::size_t>(subcarrier),                              \
      static_cast<std::uint64_t>(value))
#define HEALTH_SCORE(truth_silent, subcarrier, value)                    \
  ::silence::obs::health::score(                                         \
      (truth_silent) ? ::silence::obs::health::Truth::kSilent            \
                     : ::silence::obs::health::Truth::kActive,           \
      static_cast<std::size_t>(subcarrier),                              \
      static_cast<std::uint64_t>(value))
#define HEALTH_NABLA_EVM(value)                                          \
  ::silence::obs::health::record_nabla_evm(                              \
      static_cast<std::uint64_t>(value))

#else  // SILENCE_OBS_ON

#define HEALTH_COUNT_N(counter, n) do { (void)sizeof(n); } while (0)
#define HEALTH_COUNT(counter) do { } while (0)
#define HEALTH_WATERFALL(kind, subcarrier, value) \
  do { (void)sizeof(subcarrier); (void)sizeof(value); } while (0)
#define HEALTH_SCORE(truth_silent, subcarrier, value)                    \
  do {                                                                   \
    (void)sizeof(truth_silent);                                          \
    (void)sizeof(subcarrier);                                            \
    (void)sizeof(value);                                                 \
  } while (0)
#define HEALTH_NABLA_EVM(value) do { (void)sizeof(value); } while (0)

#endif  // SILENCE_OBS_ON

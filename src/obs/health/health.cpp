#include "obs/health/health.h"

#include <atomic>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace silence::obs::health {
namespace {

constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kNumWaterfalls =
    static_cast<std::size_t>(Waterfall::kCount);
constexpr std::size_t kNumTruths = static_cast<std::size_t>(Truth::kCount);

// The fixed-id layout in obs::Registry's fixed tail. Counter c sits at
// id kMaxCounters + c and histogram cell i at kMaxHistograms + i, with the
// cells in HealthSnapshot's order: waterfalls[kind][sc], then
// scores[truth][sc], then the nabla-EVM cell.
constexpr std::size_t kScoreCells = kNumWaterfalls * kSubcarriers;
constexpr std::size_t kNablaEvmCell = kScoreCells + kNumTruths * kSubcarriers;
static_assert(kNumCounters == kFixedCounters,
              "obs::kFixedCounters must match health's counters");
static_assert(kNablaEvmCell + 1 == kFixedHistograms,
              "obs::kFixedHistograms must match health's cells");

void record(std::size_t cell, std::uint64_t value) {
  Registry::global().histogram_record(
      static_cast<std::uint32_t>(kMaxHistograms + cell), value);
}

constexpr const char* kCounterNames[kNumCounters] = {
    "plan.calls",
    "plan.intervals",
    "plan.silences",
    "plan.bits",
    "decode.rounds",
    "decode.intervals",
    "decode.bits",
    "select.rounds",
    "select.selected",
    "select.detectable",
    "select.erroneous",
    "detector.truth_active",
    "detector.truth_silent",
    "detector.false_alarms",
    "detector.misses",
};

constexpr const char* kWaterfallNames[kNumWaterfalls] = {
    "snr_x256",
    "evm_x4096",
    "chan_mag_x1024",
};

constexpr const char* kTruthNames[kNumTruths] = {"active", "silent"};

const runner::Json& require(const runner::Json& json, std::string_view key) {
  const runner::Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error("health: missing field '" + std::string(key) +
                             "'");
  }
  return *value;
}

runner::Json hist_row_json(
    const std::array<HistogramSnapshot, kSubcarriers>& row) {
  runner::Json cells = runner::Json::array();
  for (const HistogramSnapshot& h : row) cells.push_back(histogram_json(h));
  return cells;
}

void hist_row_from_json(const runner::Json& cells,
                        std::array<HistogramSnapshot, kSubcarriers>& row) {
  if (!cells.is_array() || cells.size() != kSubcarriers) {
    throw std::runtime_error("health: subcarrier row must have 48 cells");
  }
  for (std::size_t i = 0; i < kSubcarriers; ++i) {
    row[i] = histogram_from_json(cells.as_array()[i]);
  }
}

}  // namespace

bool HealthSnapshot::empty() const { return *this == HealthSnapshot{}; }

HealthSnapshot& HealthSnapshot::operator+=(const HealthSnapshot& o) {
  for (std::size_t i = 0; i < counters.size(); ++i) counters[i] += o.counters[i];
  const auto add_rows = [](auto& rows, const auto& others) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t s = 0; s < kSubcarriers; ++s) rows[r][s] += others[r][s];
    }
  };
  add_rows(waterfalls, o.waterfalls);
  add_rows(scores, o.scores);
  nabla_evm += o.nabla_evm;
  return *this;
}

void count(Counter c, std::uint64_t delta) {
  Registry::global().counter_add(
      static_cast<std::uint32_t>(kMaxCounters + static_cast<std::size_t>(c)),
      delta);
}

void waterfall(Waterfall kind, std::size_t subcarrier, std::uint64_t value) {
  if (subcarrier >= kSubcarriers) return;
  record(static_cast<std::size_t>(kind) * kSubcarriers + subcarrier, value);
}

void score(Truth truth, std::size_t subcarrier, std::uint64_t value) {
  if (subcarrier >= kSubcarriers) return;
  record(kScoreCells + static_cast<std::size_t>(truth) * kSubcarriers +
             subcarrier,
         value);
}

void record_nabla_evm(std::uint64_t value) { record(kNablaEvmCell, value); }

HealthSnapshot snapshot() {
  const FixedSnapshot fixed = Registry::global().fixed_snapshot();
  HealthSnapshot snap;
  snap.counters = fixed.counters;
  // The fixed histograms are in HealthSnapshot's order (see the layout).
  const HistogramSnapshot* cell = fixed.histograms.data();
  for (auto& row : snap.waterfalls) {
    for (HistogramSnapshot& h : row) h = *cell++;
  }
  for (auto& row : snap.scores) {
    for (HistogramSnapshot& h : row) h = *cell++;
  }
  snap.nabla_evm = *cell;
  return snap;
}

std::uint64_t quantize(double value, double scale) {
  if (!(value > 0.0)) return 0;  // negatives and NaN quantize to 0
  const double scaled = value * scale;
  // Cap below 2^53 so quantized values survive a double-typed JSON
  // round trip exactly.
  constexpr double kCap = 4503599627370496.0;  // 2^52
  if (!(scaled < kCap)) return static_cast<std::uint64_t>(kCap);
  return static_cast<std::uint64_t>(scaled);
}

std::uint64_t quantize_score(double energy, double threshold) {
  std::uint64_t q = 0;
  if (threshold > 0.0) {
    q = quantize(energy / threshold, kScoreScale);
  } else if (energy > 0.0) {
    q = std::uint64_t{1} << 52;
  }
  // Fold the detector's decision into the quantization so the histogram
  // boundary at 256 reproduces the mask-derived counts exactly, immune
  // to the floating-point edge where energy/threshold rounds across it.
  if (energy < threshold) {
    if (q >= kScoreThreshold) q = kScoreThreshold - 1;
  } else if (q < kScoreThreshold) {
    q = kScoreThreshold;
  }
  return q;
}

runner::Json health_json(const HealthSnapshot& snapshot) {
  runner::Json root = runner::Json::object();
  root.set("schema", "cos.health.v1");
  runner::Json counters = runner::Json::object();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters.set(kCounterNames[i],
                 static_cast<std::int64_t>(snapshot.counters[i]));
  }
  root.set("counters", std::move(counters));
  runner::Json waterfalls = runner::Json::object();
  for (std::size_t w = 0; w < kNumWaterfalls; ++w) {
    runner::Json kind = runner::Json::object();
    kind.set("subcarriers", hist_row_json(snapshot.waterfalls[w]));
    waterfalls.set(kWaterfallNames[w], std::move(kind));
  }
  root.set("waterfalls", std::move(waterfalls));
  runner::Json detector = runner::Json::object();
  detector.set("scale", static_cast<std::int64_t>(kScoreScale));
  detector.set("threshold_score", static_cast<std::int64_t>(kScoreThreshold));
  for (std::size_t t = 0; t < kNumTruths; ++t) {
    detector.set(kTruthNames[t], hist_row_json(snapshot.scores[t]));
  }
  root.set("detector", std::move(detector));
  root.set("nabla_evm_x4096", histogram_json(snapshot.nabla_evm));
  return root;
}

HealthSnapshot health_from_json(const runner::Json& doc) {
  const runner::Json& schema = require(doc, "schema");
  if (schema.as_string() != "cos.health.v1") {
    throw std::runtime_error("health: unsupported schema '" +
                             schema.as_string() + "'");
  }
  HealthSnapshot snap;
  const runner::Json& counters = require(doc, "counters");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    snap.counters[i] =
        static_cast<std::uint64_t>(require(counters, kCounterNames[i]).as_int());
  }
  const runner::Json& waterfalls = require(doc, "waterfalls");
  for (std::size_t w = 0; w < kNumWaterfalls; ++w) {
    const runner::Json& kind = require(waterfalls, kWaterfallNames[w]);
    hist_row_from_json(require(kind, "subcarriers"), snap.waterfalls[w]);
  }
  const runner::Json& detector = require(doc, "detector");
  for (std::size_t t = 0; t < kNumTruths; ++t) {
    hist_row_from_json(require(detector, kTruthNames[t]), snap.scores[t]);
  }
  snap.nabla_evm = histogram_from_json(require(doc, "nabla_evm_x4096"));
  return snap;
}

void maybe_trace_counters() {
  auto& tracer = Tracer::global();
  if (!tracer.active()) return;
  static std::atomic<std::uint64_t> calls{0};
  if (calls.fetch_add(1, std::memory_order_relaxed) % kTraceSampleEvery != 0) {
    return;
  }
  const HealthSnapshot snap = snapshot();
  HistogramSnapshot evm, scores;
  for (const HistogramSnapshot& h :
       snap.waterfalls[static_cast<std::size_t>(Waterfall::kEvm)]) {
    evm += h;
  }
  for (const auto& truth : snap.scores) {
    for (const HistogramSnapshot& h : truth) scores += h;
  }
  if (evm.count > 0) {
    tracer.counter("health.mean_evm", evm.mean() / kEvmScale);
  }
  if (scores.count > 0) {
    // Mean energy/threshold ratio across all detector evaluations: the
    // margin the score stream sits at relative to the decision boundary.
    tracer.counter("health.detector_margin", scores.mean() / kScoreScale);
  }
  const std::uint64_t rounds =
      snap.counters[static_cast<std::size_t>(Counter::kSelectionRounds)];
  if (rounds > 0) {
    tracer.counter(
        "health.selected_subcarriers",
        static_cast<double>(
            snap.counters[static_cast<std::size_t>(
                Counter::kSubcarriersSelected)]) /
            static_cast<double>(rounds));
  }
}

}  // namespace silence::obs::health

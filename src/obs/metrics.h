// Low-overhead metrics registry: named counters, gauges and fixed-bucket
// histograms for the whole pipeline (phy.tx.*, phy.rx.*, cos.*, chan.*,
// sim.*, runner.*), plus a fixed tail of unnamed cells at compile-time
// ids that obs/health lays its signal-health cells out in.
//
// Hot-path writes go to a per-thread block of relaxed atomics — a block
// is owned by exactly one live thread at a time (single writer), so an
// increment is a load+store pair on an uncontended cache line, with no
// locks and no RMW contention. Blocks are pooled: a thread picks a free
// block on first use and returns it on exit, so totals survive thread
// death and memory stays bounded at O(peak concurrent threads).
//
// Merging is deterministic by construction: every accumulated quantity
// is an unsigned integer (counts, sums of integer values, bucket tallies,
// min/max), so summing blocks is order-independent and a snapshot of the
// same recorded values is identical at any thread count. Snapshots list
// metrics sorted by name, independent of registration order.
//
// Instrumentation sites should not call this API directly — use the
// macros in obs/obs.h (or obs/health/health.h for the fixed tail), which
// compile to no-ops when SILENCE_OBS=OFF.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runner/json.h"

namespace silence::obs {

// Hard caps keep thread blocks fixed-size (no hot-path growth/locking).
inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 512;

// The fixed tail: unnamed cells at the compile-time ids kMaxCounters + i
// and kMaxHistograms + i, past every interned id. snapshot() never lists
// them; fixed_snapshot() does. Sized for obs/health's layout, which
// health.cpp checks at compile time.
inline constexpr std::size_t kFixedCounters = 15;
inline constexpr std::size_t kFixedHistograms = 241;

// Power-of-two buckets: bucket 0 counts value 0, bucket b >= 1 counts
// values with bit_width b, i.e. [2^(b-1), 2^b); the last bucket is
// open-ended. 40 buckets cover every duration up to ~2^39 ns (~9 min).
inline constexpr std::size_t kHistogramBuckets = 40;

// Bucket index for a recorded value (exposed for tests).
std::size_t histogram_bucket(std::uint64_t value);

// Inclusive lower bound of bucket `index`.
std::uint64_t histogram_bucket_floor(std::size_t index);

// Monotonic wall-time in nanoseconds (steady_clock).
std::uint64_t now_ns();

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Bucket-interpolated quantile estimate (q in [0, 1]): finds the bucket
  // holding the q-th sample and interpolates linearly inside it, clamped
  // to the observed [min, max]. Power-of-two buckets bound the relative
  // error by the bucket width (a factor of 2); exact at q = 0 and q = 1.
  // Returns 0 for an empty histogram.
  double quantile(double q) const;

  // Adds `o`'s samples: counts, sums and buckets add, min/max combine,
  // and an empty `o` changes nothing. The name is kept. Integer-only,
  // so any merge order gives the same result.
  HistogramSnapshot& operator+=(const HistogramSnapshot& o);
  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

struct MetricsSnapshot {
  // Each vector is sorted by metric name.
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  const CounterSnapshot* counter(std::string_view name) const;
  const GaugeSnapshot* gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

// The fixed tail merged across thread blocks, indexed by i.
struct FixedSnapshot {
  std::array<std::uint64_t, kFixedCounters> counters{};
  std::array<HistogramSnapshot, kFixedHistograms> histograms{};
};

// The integer histogram encoding {count, sum, min, max, buckets[]}, with
// trailing zero buckets trimmed: the health cells' and net::SlotHist's
// JSON form. The name is not written.
runner::Json histogram_json(const HistogramSnapshot& h);

// Reads those five fields back (others are ignored, so metrics_json()'s
// histogram entries parse too), leaving the name empty. Throws
// std::runtime_error on a missing field or more than kHistogramBuckets
// buckets.
HistogramSnapshot histogram_from_json(const runner::Json& json);

// The snapshot as a JSON object keyed by metric name (histograms with
// mean/p50/p95/p99 and trimmed buckets): the `metrics` section of the
// observability sidecar and the trace's "metrics" block.
runner::Json metrics_json(const MetricsSnapshot& snapshot);

// Deterministic merge of several metrics_json() documents (e.g. the
// sidecars of every sweep in a campaign): counters are summed,
// gauges take the maximum, histograms are merged bucket-wise with mean /
// p50 / p95 / p99 recomputed from the combined buckets. Output follows
// the metrics_json() schema with every section sorted by name. Throws
// std::runtime_error on a malformed document.
runner::Json merge_metrics_json(const std::vector<runner::Json>& docs);

class Registry {
 public:
  // The process-wide registry all instrumentation macros record into.
  static Registry& global();

  // Interns `name`, returning a dense id. Idempotent; throws
  // std::length_error past the fixed capacity. Called once per site
  // (function-local static), never per event.
  std::uint32_t counter_id(std::string_view name);
  std::uint32_t gauge_id(std::string_view name);
  std::uint32_t histogram_id(std::string_view name);

  // Hot-path recording at an interned or fixed-tail id. Wait-free: one
  // relaxed load+store per cell.
  void counter_add(std::uint32_t id, std::uint64_t delta);
  void gauge_set(std::uint32_t id, std::int64_t value);
  void histogram_record(std::uint32_t id, std::uint64_t value);

  // Deterministic merged view of every block, sorted by name. Safe to
  // call while other threads record (their in-flight deltas may or may
  // not be included, but nothing tears).
  MetricsSnapshot snapshot() const;

  // The fixed tail, merged the same way; same concurrency guarantee.
  FixedSnapshot fixed_snapshot() const;

  // Zeroes all recorded values, the fixed tail included; registered
  // names and ids survive. Not meant to run concurrently with recording
  // (counts written during a reset may be lost, though nothing races in
  // the UB sense).
  void reset();

 private:
  struct HistogramCells {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  struct ThreadBlock {
    std::array<std::atomic<std::uint64_t>, kMaxCounters + kFixedCounters>
        counters{};
    std::array<HistogramCells, kMaxHistograms + kFixedHistograms>
        histograms{};
  };

  Registry() = default;
  ThreadBlock& local_block();
  static HistogramSnapshot load(const HistogramCells& cells);
  friend struct ThreadBlockLease;

  mutable std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::deque<ThreadBlock> blocks_;       // stable addresses, never shrinks
  std::vector<ThreadBlock*> free_blocks_;  // returned by dead threads
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges_{};
  std::array<std::atomic<bool>, kMaxGauges> gauge_set_{};
};

}  // namespace silence::obs

#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <stdexcept>

namespace silence::obs {
namespace {

std::uint32_t intern(std::vector<std::string>& names, std::string_view name,
                     std::size_t capacity, const char* kind) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  if (names.size() >= capacity) {
    throw std::length_error(std::string("obs: too many ") + kind +
                            " metrics (cap " + std::to_string(capacity) +
                            ")");
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

// Single-writer cells: plain load+store beats fetch_add (no lock prefix)
// and is still tear-free for concurrent snapshot readers.
inline void cell_add(std::atomic<std::uint64_t>& cell, std::uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

}  // namespace

std::size_t histogram_bucket(std::uint64_t value) {
  if (value == 0) return 0;
  return std::min<std::size_t>(std::bit_width(value), kHistogramBuckets - 1);
}

std::uint64_t histogram_bucket_floor(std::size_t index) {
  if (index == 0) return 0;
  return std::uint64_t{1} << (index - 1);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double n = static_cast<double>(buckets[b]);
    if (n == 0.0) continue;
    if (cumulative + n >= target) {
      const double lower = static_cast<double>(histogram_bucket_floor(b));
      // The last bucket is open-ended; the observed max bounds it.
      const double upper =
          b + 1 < buckets.size()
              ? static_cast<double>(histogram_bucket_floor(b + 1))
              : static_cast<double>(max);
      const double fraction = (target - cumulative) / n;
      const double value = lower + fraction * (upper - lower);
      return std::clamp(value, static_cast<double>(min),
                        static_cast<double>(max));
    }
    cumulative += n;
  }
  return static_cast<double>(max);
}

HistogramSnapshot& HistogramSnapshot::operator+=(const HistogramSnapshot& o) {
  if (o.count == 0) return *this;
  if (count == 0 || o.min < min) min = o.min;
  if (count == 0 || o.max > max) max = o.max;
  count += o.count;
  sum += o.sum;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) buckets[b] += o.buckets[b];
  return *this;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const CounterSnapshot* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // intentionally leaked:
  // instrumented code may run during static destruction of other TUs.
  return *instance;
}

// Ties a pooled block to the lifetime of one thread: acquired on the
// thread's first recording, returned to the free list when it exits so a
// later thread can continue accumulating into the same cells.
struct ThreadBlockLease {
  Registry* registry = nullptr;
  Registry::ThreadBlock* block = nullptr;

  Registry::ThreadBlock& acquire(Registry& reg) {
    if (block == nullptr) {
      registry = &reg;
      std::lock_guard lock(reg.mutex_);
      if (!reg.free_blocks_.empty()) {
        block = reg.free_blocks_.back();
        reg.free_blocks_.pop_back();
      } else {
        block = &reg.blocks_.emplace_back();
      }
    }
    return *block;
  }

  ~ThreadBlockLease() {
    if (block != nullptr) {
      std::lock_guard lock(registry->mutex_);
      registry->free_blocks_.push_back(block);
    }
  }
};

Registry::ThreadBlock& Registry::local_block() {
  thread_local ThreadBlockLease lease;
  return lease.acquire(*this);
}

std::uint32_t Registry::counter_id(std::string_view name) {
  std::lock_guard lock(mutex_);
  return intern(counter_names_, name, kMaxCounters, "counter");
}

std::uint32_t Registry::gauge_id(std::string_view name) {
  std::lock_guard lock(mutex_);
  return intern(gauge_names_, name, kMaxGauges, "gauge");
}

std::uint32_t Registry::histogram_id(std::string_view name) {
  std::lock_guard lock(mutex_);
  return intern(histogram_names_, name, kMaxHistograms, "histogram");
}

void Registry::counter_add(std::uint32_t id, std::uint64_t delta) {
  cell_add(local_block().counters[id], delta);
}

void Registry::gauge_set(std::uint32_t id, std::int64_t value) {
  gauges_[id].store(value, std::memory_order_relaxed);
  gauge_set_[id].store(true, std::memory_order_relaxed);
}

void Registry::histogram_record(std::uint32_t id, std::uint64_t value) {
  HistogramCells& h = local_block().histograms[id];
  const std::uint64_t count = h.count.load(std::memory_order_relaxed);
  if (count == 0 || value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (count == 0 || value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
  h.count.store(count + 1, std::memory_order_relaxed);
  cell_add(h.sum, value);
  cell_add(h.buckets[histogram_bucket(value)], 1);
}

// One thread block's cell as a snapshot, so every merge goes through
// HistogramSnapshot::operator+=.
HistogramSnapshot Registry::load(const HistogramCells& cells) {
  HistogramSnapshot h;
  h.count = cells.count.load(std::memory_order_relaxed);
  h.sum = cells.sum.load(std::memory_order_relaxed);
  h.min = cells.min.load(std::memory_order_relaxed);
  h.max = cells.max.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    h.buckets[b] = cells.buckets[b].load(std::memory_order_relaxed);
  }
  return h;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;

  snap.counters.resize(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters[i].name = counter_names_[i];
  }
  snap.histograms.resize(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    snap.histograms[i].name = histogram_names_[i];
  }
  for (const ThreadBlock& block : blocks_) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value +=
          block.counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      snap.histograms[i] += load(block.histograms[i]);
    }
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (!gauge_set_[i].load(std::memory_order_relaxed)) continue;
    snap.gauges.push_back(
        {gauge_names_[i], gauges_[i].load(std::memory_order_relaxed)});
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

FixedSnapshot Registry::fixed_snapshot() const {
  std::lock_guard lock(mutex_);
  FixedSnapshot snap;
  for (const ThreadBlock& block : blocks_) {
    for (std::size_t i = 0; i < kFixedCounters; ++i) {
      snap.counters[i] +=
          block.counters[kMaxCounters + i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kFixedHistograms; ++i) {
      snap.histograms[i] += load(block.histograms[kMaxHistograms + i]);
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (ThreadBlock& block : blocks_) {
    for (auto& c : block.counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : block.histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.min.store(0, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (auto& s : gauge_set_) s.store(false, std::memory_order_relaxed);
}

runner::Json histogram_json(const HistogramSnapshot& h) {
  runner::Json root = runner::Json::object();
  root.set("count", static_cast<std::int64_t>(h.count));
  root.set("sum", static_cast<std::int64_t>(h.sum));
  root.set("min", static_cast<std::int64_t>(h.min));
  root.set("max", static_cast<std::int64_t>(h.max));
  std::size_t last = h.buckets.size();
  while (last > 0 && h.buckets[last - 1] == 0) --last;
  runner::Json tallies = runner::Json::array();
  for (std::size_t b = 0; b < last; ++b) {
    tallies.push_back(static_cast<std::int64_t>(h.buckets[b]));
  }
  root.set("buckets", std::move(tallies));
  return root;
}

HistogramSnapshot histogram_from_json(const runner::Json& json) {
  const auto field = [&json](std::string_view key) -> const runner::Json& {
    const runner::Json* value = json.find(key);
    if (value == nullptr) {
      throw std::runtime_error("histogram: missing field '" +
                               std::string(key) + "'");
    }
    return *value;
  };
  HistogramSnapshot h;
  h.count = static_cast<std::uint64_t>(field("count").as_int());
  h.sum = static_cast<std::uint64_t>(field("sum").as_int());
  h.min = static_cast<std::uint64_t>(field("min").as_int());
  h.max = static_cast<std::uint64_t>(field("max").as_int());
  // Trailing zero buckets are trimmed, so position == bucket index.
  const runner::Json::Array& tallies = field("buckets").as_array();
  if (tallies.size() > kHistogramBuckets) {
    throw std::runtime_error("histogram: more than " +
                             std::to_string(kHistogramBuckets) + " buckets");
  }
  for (std::size_t b = 0; b < tallies.size(); ++b) {
    h.buckets[b] = static_cast<std::uint64_t>(tallies[b].as_int());
  }
  return h;
}

runner::Json metrics_json(const MetricsSnapshot& snapshot) {
  using runner::Json;
  Json root = Json::object();
  Json counters = Json::object();
  for (const auto& c : snapshot.counters) {
    counters.set(c.name, static_cast<std::int64_t>(c.value));
  }
  root.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& g : snapshot.gauges) {
    gauges.set(g.name, static_cast<std::int64_t>(g.value));
  }
  root.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const auto& h : snapshot.histograms) {
    Json entry = Json::object();
    entry.set("count", static_cast<std::int64_t>(h.count));
    entry.set("sum", static_cast<std::int64_t>(h.sum));
    entry.set("min", static_cast<std::int64_t>(h.min));
    entry.set("max", static_cast<std::int64_t>(h.max));
    entry.set("mean", h.mean());
    // Bucket-interpolated latency quantiles. Appended after the legacy
    // fields, so pre-existing keys keep their exact bytes.
    entry.set("p50", h.quantile(0.50));
    entry.set("p95", h.quantile(0.95));
    entry.set("p99", h.quantile(0.99));
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    Json floors = Json::array();
    Json buckets = Json::array();
    for (std::size_t b = 0; b < last; ++b) {
      floors.push_back(static_cast<std::int64_t>(histogram_bucket_floor(b)));
      buckets.push_back(static_cast<std::int64_t>(h.buckets[b]));
    }
    entry.set("bucket_floors", std::move(floors));
    entry.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(entry));
  }
  root.set("histograms", std::move(histograms));
  return root;
}

runner::Json merge_metrics_json(const std::vector<runner::Json>& docs) {
  using runner::Json;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  const auto section = [](const Json& doc, std::string_view key) {
    static const Json empty = Json::object();
    const Json* value = doc.find(key);
    if (value == nullptr) return &empty;
    if (!value->is_object()) {
      throw std::runtime_error("merge_metrics_json: '" + std::string(key) +
                               "' is not an object");
    }
    return value;
  };

  for (const Json& doc : docs) {
    for (const auto& [name, value] : section(doc, "counters")->as_object()) {
      counters[name] += static_cast<std::uint64_t>(value.as_int());
    }
    for (const auto& [name, value] : section(doc, "gauges")->as_object()) {
      const std::int64_t v = value.as_int();
      const auto [it, inserted] = gauges.emplace(name, v);
      if (!inserted && v > it->second) it->second = v;
    }
    for (const auto& [name, value] : section(doc, "histograms")->as_object()) {
      HistogramSnapshot& h = histograms[name];
      h.name = name;
      h += histogram_from_json(value);
    }
  }

  MetricsSnapshot merged;
  for (auto& [name, value] : counters) merged.counters.push_back({name, value});
  for (auto& [name, value] : gauges) merged.gauges.push_back({name, value});
  for (auto& [name, h] : histograms) merged.histograms.push_back(std::move(h));
  return metrics_json(merged);
}

}  // namespace silence::obs

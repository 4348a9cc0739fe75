#include "obs/flight/flight.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace silence::obs::flight {

namespace {

TrialRecording*& active_slot() {
  thread_local TrialRecording* slot = nullptr;
  return slot;
}

runner::Json event_to_json(const Event& event) {
  runner::Json entry = runner::Json::object();
  entry.set("stage", event.stage);
  entry.set("sym", static_cast<std::int64_t>(event.symbol));
  entry.set("sc", static_cast<std::int64_t>(event.subcarrier));
  entry.set("a", event.a);
  entry.set("b", event.b);
  entry.set("u", static_cast<std::int64_t>(event.u));
  return entry;
}

std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    out.push_back(keep ? c : '-');
  }
  return out.empty() ? std::string("unnamed") : out;
}

}  // namespace

TrialRecording::TrialRecording(TrialLabel label, std::uint64_t seed,
                               runner::Json spec, std::size_t capacity)
    : label_(std::move(label)),
      seed_(seed),
      spec_(std::move(spec)),
      ring_(capacity == 0 ? 1 : capacity),
      outer_(active_slot()) {
  active_slot() = this;
}

TrialRecording::~TrialRecording() { active_slot() = outer_; }

TrialRecording* TrialRecording::active() { return active_slot(); }

void TrialRecording::record(const Event& event) {
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++evicted_;  // head_ just overwrote the oldest event
  }
}

void TrialRecording::trigger(std::string_view reason) {
  for (const auto& existing : reasons_) {
    if (existing == reason) return;
  }
  reasons_.emplace_back(reason);
}

std::vector<Event> TrialRecording::events() const {
  std::vector<Event> out;
  out.reserve(count_);
  // Oldest event: at slot head_ when the ring has wrapped, else slot 0.
  const std::size_t first = count_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

runner::Json TrialRecording::artifact() const {
  runner::Json root = runner::Json::object();
  root.set("kind", "cos_flight_recording");
  root.set("schema_version", kFlightSchemaVersion);
  root.set("sweep", label_.sweep);
  root.set("point_index", static_cast<std::int64_t>(label_.point_index));
  root.set("trial_index", static_cast<std::int64_t>(label_.trial_index));
  root.set("seed", seed_to_string(seed_));
  runner::Json reasons = runner::Json::array();
  for (const auto& reason : reasons_) reasons.push_back(reason);
  root.set("anomalies", std::move(reasons));
  root.set("spec", spec_);
  root.set("result", result_);
  root.set("events_evicted", static_cast<std::int64_t>(evicted_));
  runner::Json events_json = runner::Json::array();
  for (const Event& event : events()) {
    events_json.push_back(event_to_json(event));
  }
  root.set("events", std::move(events_json));
  return root;
}

std::string seed_to_string(std::uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, seed);
  return buf;
}

std::uint64_t seed_from_string(std::string_view text) {
  if (text.size() < 3 || text.substr(0, 2) != "0x") {
    throw std::runtime_error("flight: seed must be a 0x-prefixed hex string");
  }
  std::uint64_t value = 0;
  for (const char c : text.substr(2)) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') digit = static_cast<std::uint64_t>(c - 'A' + 10);
    else throw std::runtime_error("flight: invalid hex digit in seed");
    value = (value << 4) | digit;
  }
  return value;
}

namespace {

const runner::Json* field(const runner::Json& root, std::string_view key) {
  return root.is_object() ? root.find(key) : nullptr;
}

// Textual comparison through the deterministic serializer: equal dumps
// imply equal values including every double's bit pattern.
bool same(const runner::Json* x, const runner::Json* y) {
  if ((x == nullptr) != (y == nullptr)) return false;
  if (x == nullptr) return true;
  return x->dump_compact() == y->dump_compact();
}

}  // namespace

bool compare_artifacts(const runner::Json& expected,
                       const runner::Json& actual, std::string* diff) {
  const auto mismatch = [&](const std::string& what) {
    if (diff != nullptr) *diff = what;
    return false;
  };
  for (const char* key : {"schema_version", "seed", "spec", "result"}) {
    if (!same(field(expected, key), field(actual, key))) {
      return mismatch(std::string("field '") + key + "' differs");
    }
  }
  const runner::Json* ee = field(expected, "events");
  const runner::Json* ae = field(actual, "events");
  if ((ee == nullptr) != (ae == nullptr)) {
    return mismatch("one artifact has no events array");
  }
  if (ee != nullptr) {
    const auto& eva = ee->as_array();
    const auto& ava = ae->as_array();
    if (eva.size() != ava.size()) {
      return mismatch("event count differs: " + std::to_string(eva.size()) +
                      " vs " + std::to_string(ava.size()));
    }
    for (std::size_t i = 0; i < eva.size(); ++i) {
      if (eva[i].dump_compact() != ava[i].dump_compact()) {
        return mismatch("event " + std::to_string(i) + " differs: " +
                        eva[i].dump_compact() + " vs " +
                        ava[i].dump_compact());
      }
    }
  }
  if (diff != nullptr) diff->clear();
  return true;
}

DumpRouter& DumpRouter::global() {
  static DumpRouter* instance = new DumpRouter();  // leaked like Registry
  return *instance;
}

void DumpRouter::configure(std::string dir, std::size_t limit) {
  std::lock_guard lock(mutex_);
  dir_ = std::move(dir);
  limit_ = limit;
  kept_.clear();
  dumped_.store(0, std::memory_order_relaxed);
  suppressed_.store(0, std::memory_order_relaxed);
  enabled_.store(!dir_.empty() && limit_ > 0, std::memory_order_release);
}

void DumpRouter::disable() {
  std::lock_guard lock(mutex_);
  enabled_.store(false, std::memory_order_release);
}

bool DumpRouter::enabled() const {
  return enabled_.load(std::memory_order_acquire);
}

std::string DumpRouter::dir() const {
  std::lock_guard lock(mutex_);
  return dir_;
}

std::string DumpRouter::dump_name(const TrialLabel& label,
                                  std::uint64_t seed) {
  return sanitize(label.sweep) + "__p" + std::to_string(label.point_index) +
         "__t" + std::to_string(label.trial_index) + "__s" +
         seed_to_string(seed).substr(2) + ".flight.json";
}

bool DumpRouter::keeps(const Key& key) const {
  return kept_.size() < limit_ ||
         (!kept_.empty() && key < kept_.rbegin()->first);
}

std::string DumpRouter::route(const TrialRecording& rec) {
  if (!rec.triggered() || !enabled()) return "";
  // The budget bounds artifact volume when a sweep point is pathological
  // (every trial anomalous); a key that cannot be kept skips the render.
  const TrialLabel& label = rec.label();
  Key key{label.sweep, label.point_index, label.trial_index, rec.seed()};
  const auto skip = [this] {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return std::string();
  };
  {
    std::lock_guard lock(mutex_);
    if (!keeps(key)) return skip();
  }
  const std::string text = rec.artifact().dump();
  // The decision and the file operations happen under one lock, so a
  // dump and its removal can never interleave.
  std::lock_guard lock(mutex_);
  if (!keeps(key)) return skip();
  if (kept_.size() >= limit_) {
    const auto highest = std::prev(kept_.end());
    std::filesystem::remove(highest->second);
    kept_.erase(highest);
    suppressed_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::filesystem::path path =
      std::filesystem::path(dir_) / dump_name(label, rec.seed());
  std::filesystem::create_directories(path.parent_path());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("flight: cannot open " + path.string());
    }
    out << text;
  }
  kept_.emplace(std::move(key), path.string());
  dumped_.store(kept_.size(), std::memory_order_relaxed);
  return path.string();
}

}  // namespace silence::obs::flight

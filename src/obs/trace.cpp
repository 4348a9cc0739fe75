#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "runner/json.h"

namespace silence::obs {
namespace {

// Stable per-thread track id, assigned on a thread's first event.
std::uint32_t thread_track_id(std::atomic<std::uint32_t>& next) {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Chrome traces use microsecond timestamps; keep ns resolution as a
// fixed three-decimal fraction (deterministic, locale-free).
void append_ts_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // leaked, same as the Registry
  return *instance;
}

void Tracer::start() {
  std::lock_guard lock(mutex_);
  events_.clear();
  sim_events_.clear();
  sim_tracks_.clear();
  counter_events_.clear();
  sim_claimed_.store(false, std::memory_order_relaxed);
  dropped_ = 0;
  t0_ = now_ns();
  active_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { active_.store(false, std::memory_order_relaxed); }

void Tracer::push(char phase, const char* name) {
  const std::uint64_t ts = now_ns() - t0_;
  const std::uint32_t tid = thread_track_id(next_tid_);
  std::lock_guard lock(mutex_);
  if (events_.size() >= kMaxTraceEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({name, ts, tid, phase});
}

void Tracer::span_begin(const char* name) {
  if (active()) push('B', name);
}

void Tracer::span_end(const char* name) {
  if (active()) push('E', name);
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

bool Tracer::claim_sim_session() {
  if (!active()) return false;
  return !sim_claimed_.exchange(true, std::memory_order_relaxed);
}

std::uint32_t Tracer::sim_track(const std::string& name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < sim_tracks_.size(); ++i) {
    if (sim_tracks_[i] == name) return static_cast<std::uint32_t>(i + 1);
  }
  sim_tracks_.push_back(name);
  return static_cast<std::uint32_t>(sim_tracks_.size());
}

void Tracer::sim_push(char phase, std::uint32_t track, const char* name,
                      double ts_us, std::string args) {
  if (!active()) return;
  // Simulated µs map exactly onto the ns grid for slot-quantized times;
  // llround keeps fractional airtimes deterministic (pure fn of ts_us).
  const auto ts = static_cast<std::uint64_t>(std::llround(ts_us * 1000.0));
  std::lock_guard lock(mutex_);
  if (sim_events_.size() >= kMaxTraceEvents) {
    ++dropped_;
    return;
  }
  sim_events_.push_back({name, std::move(args), ts, track, phase});
}

void Tracer::sim_begin(std::uint32_t track, const char* name, double ts_us,
                       std::string args) {
  sim_push('B', track, name, ts_us, std::move(args));
}

void Tracer::sim_end(std::uint32_t track, const char* name, double ts_us) {
  sim_push('E', track, name, ts_us, "");
}

void Tracer::sim_instant(std::uint32_t track, const char* name, double ts_us,
                         std::string args) {
  sim_push('i', track, name, ts_us, std::move(args));
}

std::size_t Tracer::sim_event_count() const {
  std::lock_guard lock(mutex_);
  return sim_events_.size();
}

void Tracer::counter(const char* name, double value) {
  if (!active()) return;
  const std::uint64_t ts = now_ns() - t0_;
  std::lock_guard lock(mutex_);
  if (counter_events_.size() >= kMaxTraceEvents) {
    ++dropped_;
    return;
  }
  counter_events_.push_back({name, value, ts});
}

std::size_t Tracer::counter_count() const {
  std::lock_guard lock(mutex_);
  return counter_events_.size();
}

std::size_t Tracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::string Tracer::to_json() {
  stop();
  std::vector<Event> events;
  std::vector<SimEvent> sim_events;
  std::vector<std::string> sim_tracks;
  std::vector<CounterEvent> counter_events;
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mutex_);
    events = events_;
    sim_events = sim_events_;
    sim_tracks = sim_tracks_;
    counter_events = counter_events_;
    dropped = dropped_;
  }
  // Buffer order is real-time lock-acquisition order, so a stable sort
  // on ts yields a globally monotonic file that still preserves each
  // thread's B-before-E ordering at equal timestamps.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });

  // Close any span left open (e.g. tracing stopped mid-packet): walk
  // per-thread stacks and append synthetic E events at the last seen
  // timestamp so every B has a matching E.
  std::vector<std::pair<std::uint32_t, std::vector<const char*>>> stacks;
  const auto stack_for = [&](std::uint32_t tid) -> std::vector<const char*>& {
    for (auto& [id, stack] : stacks) {
      if (id == tid) return stack;
    }
    return stacks.emplace_back(tid, std::vector<const char*>{}).second;
  };
  std::uint64_t last_ts = 0;
  std::vector<Event> cleaned;
  cleaned.reserve(events.size());
  for (const Event& e : events) {
    auto& stack = stack_for(e.tid);
    if (e.phase == 'E') {
      if (stack.empty()) continue;  // stray end: drop
      stack.pop_back();
    } else {
      stack.push_back(e.name);
    }
    last_ts = std::max(last_ts, e.ts);
    cleaned.push_back(e);
  }
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) {
      cleaned.push_back({stack.back(), last_ts, tid, 'E'});
      stack.pop_back();
    }
  }

  // Same discipline for the simulation tracks: stable sort on simulated
  // time, then matched B/E per track with synthetic closes at the last
  // simulated timestamp. Instants pass through untouched.
  std::stable_sort(
      sim_events.begin(), sim_events.end(),
      [](const SimEvent& a, const SimEvent& b) { return a.ts < b.ts; });
  std::vector<std::pair<std::uint32_t, std::vector<const char*>>> sim_stacks;
  const auto sim_stack_for =
      [&](std::uint32_t tid) -> std::vector<const char*>& {
    for (auto& [id, stack] : sim_stacks) {
      if (id == tid) return stack;
    }
    return sim_stacks.emplace_back(tid, std::vector<const char*>{}).second;
  };
  std::uint64_t sim_last_ts = 0;
  std::vector<SimEvent> sim_cleaned;
  sim_cleaned.reserve(sim_events.size());
  for (SimEvent& e : sim_events) {
    if (e.phase != 'i') {
      auto& stack = sim_stack_for(e.tid);
      if (e.phase == 'E') {
        if (stack.empty()) continue;  // stray end: drop
        stack.pop_back();
      } else {
        stack.push_back(e.name);
      }
    }
    sim_last_ts = std::max(sim_last_ts, e.ts);
    sim_cleaned.push_back(std::move(e));
  }
  for (auto& [tid, stack] : sim_stacks) {
    while (!stack.empty()) {
      sim_cleaned.push_back({stack.back(), "", sim_last_ts, tid, 'E'});
      stack.pop_back();
    }
  }

  std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n";
  if (dropped > 0) {
    out += "  \"droppedEvents\": " + std::to_string(dropped) + ",\n";
  }
  out += "  \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  for (const Event& e : cleaned) {
    sep();
    out += "    {\"name\": \"";
    out += e.name;  // site names are controlled literals, no escaping needed
    out += "\", \"cat\": \"cos\", \"ph\": \"";
    out += e.phase;
    out += "\", \"pid\": 1, \"tid\": " + std::to_string(e.tid) + ", \"ts\": ";
    append_ts_us(out, e.ts);
    out += "}";
  }
  if (!sim_tracks.empty()) {
    // Metadata names the simulation process and one track per station /
    // medium so Perfetto labels them; sort_index pins the track order.
    sep();
    out +=
        "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
        "\"tid\": 0, \"args\": {\"name\": \"net-sim\"}}";
    for (std::size_t i = 0; i < sim_tracks.size(); ++i) {
      const std::string tid = std::to_string(i + 1);
      sep();
      out += "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 2, "
             "\"tid\": " + tid + ", \"args\": {\"name\": \"" + sim_tracks[i] +
             "\"}}";
      sep();
      out += "    {\"name\": \"thread_sort_index\", \"ph\": \"M\", "
             "\"pid\": 2, \"tid\": " + tid + ", \"args\": {\"sort_index\": " +
             tid + "}}";
    }
  }
  for (const SimEvent& e : sim_cleaned) {
    sep();
    out += "    {\"name\": \"";
    out += e.name;
    out += "\", \"cat\": \"net\", \"ph\": \"";
    out += e.phase;
    out += "\", \"pid\": 2, \"tid\": " + std::to_string(e.tid) + ", \"ts\": ";
    append_ts_us(out, e.ts);
    if (e.phase == 'i') out += ", \"s\": \"t\"";
    if (!e.args.empty()) out += ", \"args\": " + e.args;
    out += "}";
  }
  if (!counter_events.empty()) {
    std::stable_sort(counter_events.begin(), counter_events.end(),
                     [](const CounterEvent& a, const CounterEvent& b) {
                       return a.ts < b.ts;
                     });
    sep();
    out +=
        "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 3, "
        "\"tid\": 0, \"args\": {\"name\": \"phy-health\"}}";
    for (const CounterEvent& e : counter_events) {
      sep();
      out += "    {\"name\": \"";
      out += e.name;
      out += "\", \"cat\": \"health\", \"ph\": \"C\", \"pid\": 3, "
             "\"tid\": 0, \"ts\": ";
      append_ts_us(out, e.ts);
      out += ", \"args\": {\"value\": " + runner::format_double(e.value) + "}}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": ";
  out += metrics_json(Registry::global().snapshot()).dump_compact();
  out += "\n}\n";
  return out;
}

void Tracer::write(const std::string& path) {
  const std::string json = to_json();
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream file(p, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("obs: cannot write trace file " + path);
  }
  file << json;
}

}  // namespace silence::obs

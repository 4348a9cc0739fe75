#include "spans.h"

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace perfbench {
namespace {

// Zero-length span recorded first, so its track identifies the thread
// that owns the capture.
constexpr const char* kMarker = "perfbench.capture";

struct Frame {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;
};

// Value of `"key": ` on a trace-event line, up to the next ',' or '}'.
std::string_view field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + key.size();
  std::size_t end = line.find_first_of(",}", begin);
  if (end == std::string_view::npos) end = line.size();
  std::string_view v = line.substr(begin, end - begin);
  if (!v.empty() && v.front() == '"') v = v.substr(1, v.size() - 2);
  return v;
}

// Trace timestamps are microseconds with exactly three decimals.
std::uint64_t ts_ns(std::string_view ts) {
  const std::size_t dot = ts.find('.');
  const std::string whole(ts.substr(0, dot));
  const std::string frac(dot == std::string_view::npos ? "0"
                                                       : ts.substr(dot + 1));
  return std::strtoull(whole.c_str(), nullptr, 10) * 1000 +
         std::strtoull(frac.c_str(), nullptr, 10);
}

}  // namespace

SpanProfile& SpanProfile::operator+=(const SpanProfile& o) {
  for (const auto& [name, t] : o.spans) {
    SpanTotals& mine = spans[name];
    mine.incl_s += t.incl_s;
    mine.self_s += t.self_s;
    mine.count += t.count;
  }
  other_covered_s += o.other_covered_s;
  dropped_events += o.dropped_events;
  return *this;
}

double SpanProfile::incl(std::string_view name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.incl_s;
}

double SpanProfile::self(std::string_view name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_s;
}

double SpanProfile::self_prefix(std::string_view prefix) const {
  double s = 0.0;
  for (const auto& [name, t] : spans) {
    if (std::string_view(name).starts_with(prefix)) s += t.self_s;
  }
  return s;
}

std::uint64_t SpanProfile::count_prefix(std::string_view prefix) const {
  std::uint64_t n = 0;
  for (const auto& [name, t] : spans) {
    if (std::string_view(name).starts_with(prefix)) n += t.count;
  }
  return n;
}

void capture_begin() {
  auto& tracer = silence::obs::Tracer::global();
  tracer.start();
  tracer.claim_sim_session();
  tracer.span_begin(kMarker);
  tracer.span_end(kMarker);
}

SpanProfile capture_end() {
  auto& tracer = silence::obs::Tracer::global();
  const std::string json = tracer.to_json();
  SpanProfile profile;
  profile.dropped_events = tracer.dropped();

  // to_json() writes one event per line, sorted by time with each
  // thread's B-before-E order kept, and closes any span left open.
  std::unordered_map<std::string, std::vector<Frame>> stacks;
  std::string main_tid;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string_view line(json.data() + pos, end - pos);
    pos = end + 1;
    if (field(line, "\"pid\": ") != "1") continue;
    const std::string_view ph = field(line, "\"ph\": ");
    const std::string_view name = field(line, "\"name\": ");
    const std::string tid(field(line, "\"tid\": "));
    const std::uint64_t ts = ts_ns(field(line, "\"ts\": "));
    if (name == kMarker) {
      if (main_tid.empty()) main_tid = tid;
      continue;
    }
    std::vector<Frame>& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back({std::string(name), ts, 0});
      continue;
    }
    if (ph != "E" || stack.empty()) continue;
    const Frame frame = std::move(stack.back());
    stack.pop_back();
    const std::uint64_t dur = ts - frame.start_ns;
    SpanTotals& t = profile.spans[frame.name];
    t.incl_s += 1e-9 * static_cast<double>(dur);
    t.self_s += 1e-9 * static_cast<double>(
                        dur > frame.child_ns ? dur - frame.child_ns : 0);
    ++t.count;
    if (!stack.empty()) {
      stack.back().child_ns += dur;
    } else if (tid != main_tid) {
      profile.other_covered_s += 1e-9 * static_cast<double>(dur);
    }
  }
  return profile;
}

}  // namespace perfbench

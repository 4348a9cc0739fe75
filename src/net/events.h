// Timestamped events and the deterministic calendar queue driving the
// event-driven network engine (net/engine.h). The queue's ordering
// contract is the backbone of the engine's purity in (scenario, seed):
// events pop in (timestamp, tie-break key, FIFO) order — the key is
// (kind, bss, station), fixed at schedule time — so two runs of the same
// scenario pop the identical event sequence, and runner-parallel sweeps
// (which never share an engine) stay byte-identical at any thread
// count.
//
// The structure is a static calendar: buckets of width `width_us` over
// [0, horizon), each kept sorted, plus one overflow bucket for events
// past the horizon (rare: the final frame exchange of a run overrunning
// `duration_us`). Simulation time is monotone — events are never
// scheduled before the last popped timestamp — so a cursor walks the
// calendar forward and push/pop are O(1) amortized with the tiny
// per-bucket populations a DCF round structure produces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace silence::net {

// Ordering rank doubles as the tie-break priority at equal timestamps:
// arrivals land before the round they want to join, a round start
// scheduled at a TX end time runs after that TX end completes its
// bookkeeping on another BSS.
enum class EventKind : std::uint8_t {
  kArrival = 0,        // one traffic frame reaches `sta`'s queue
  kRoundStart = 1,     // BSS `bss` opens a contention round
  kBackoffExpiry = 2,  // the round's smallest backoff counter hit zero
  kTxEnd = 3,          // winner `sta`'s frame exchange (+SIFS+ACK) ends
};

struct Event {
  double t_us = 0.0;
  EventKind kind = EventKind::kRoundStart;
  std::int32_t bss = 0;
  std::int32_t sta = -1;  // -1: the event addresses the BSS, not a station
  // FIFO sequence number assigned by the queue at push; the final
  // tie-break, so equal (t, kind, bss, sta) events pop in push order.
  std::uint64_t seq = 0;
};

// Strict total order: timestamp, then the fixed tie-break key, then FIFO.
inline bool event_before(const Event& a, const Event& b) {
  if (a.t_us != b.t_us) return a.t_us < b.t_us;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.bss != b.bss) return a.bss < b.bss;
  if (a.sta != b.sta) return a.sta < b.sta;
  return a.seq < b.seq;
}

class CalendarQueue {
 public:
  // `horizon_us` sizes the calendar (events beyond it share the overflow
  // bucket); `width_us` is the bucket granularity. Bucket count is
  // capped, trading width for memory on very long scenarios.
  explicit CalendarQueue(double horizon_us, double width_us = 64.0)
      : width_(width_us > 0.0 ? width_us : 64.0) {
    if (horizon_us < 0.0) horizon_us = 0.0;
    std::size_t buckets =
        static_cast<std::size_t>(horizon_us / width_) + 2;
    if (buckets > kMaxBuckets) {
      buckets = kMaxBuckets;
      width_ = horizon_us / static_cast<double>(kMaxBuckets - 1);
    }
    buckets_.resize(buckets);
  }

  void push(double t_us, EventKind kind, int bss, int sta) {
    Event e;
    e.t_us = t_us;
    e.kind = kind;
    e.bss = bss;
    e.sta = sta;
    e.seq = next_seq_++;
    std::vector<Event>& bucket = buckets_[bucket_for(t_us)];
    // seq is unique, so event_before is strict: upper_bound keeps equal
    // (t, key) events in push order.
    bucket.insert(
        std::upper_bound(bucket.begin(), bucket.end(), e, event_before), e);
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Timestamp of the next event to pop; throws when empty.
  double next_time() const {
    return buckets_[first_nonempty()].front().t_us;
  }

  Event pop() {
    cursor_ = first_nonempty();
    std::vector<Event>& bucket = buckets_[cursor_];
    const Event e = bucket.front();
    bucket.erase(bucket.begin());
    --size_;
    return e;
  }

 private:
  static constexpr std::size_t kMaxBuckets = 1u << 16;

  std::size_t bucket_for(double t_us) const {
    if (t_us <= 0.0) return cursor_;
    auto idx = static_cast<std::size_t>(t_us / width_);
    if (idx >= buckets_.size()) idx = buckets_.size() - 1;  // overflow
    // Time is monotone, but an event at exactly the cursor's bucket
    // boundary must not land behind the cursor.
    return idx < cursor_ ? cursor_ : idx;
  }

  std::size_t first_nonempty() const {
    if (size_ == 0) {
      throw std::logic_error("CalendarQueue: pop/next_time on empty queue");
    }
    std::size_t c = cursor_;
    while (buckets_[c].empty()) ++c;
    return c;
  }

  std::vector<std::vector<Event>> buckets_;
  double width_;
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace silence::net

// The calendar queue's ordering contract (net/events.h): events pop in
// (timestamp, kind, bss, sta, FIFO) order regardless of push order or
// bucket placement. The engine's determinism at any sweep thread count
// reduces to exactly this total order, so it gets its own tests.
#include "net/events.h"

#include <gtest/gtest.h>

#include <vector>

namespace silence::net {
namespace {

std::vector<Event> drain(CalendarQueue& q) {
  std::vector<Event> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

TEST(CalendarQueue, PopsInTimestampOrder) {
  CalendarQueue q(1000.0);
  // Deliberately shuffled pushes across several buckets.
  q.push(700.0, EventKind::kRoundStart, 0, -1);
  q.push(34.0, EventKind::kBackoffExpiry, 0, -1);
  q.push(512.5, EventKind::kTxEnd, 1, 3);
  q.push(0.0, EventKind::kRoundStart, 1, -1);
  q.push(63.999, EventKind::kArrival, 0, 2);
  q.push(64.0, EventKind::kArrival, 0, 2);  // exact bucket boundary
  const std::vector<Event> events = drain(q);
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].t_us, events[i].t_us);
  }
  EXPECT_EQ(events.front().t_us, 0.0);
  EXPECT_EQ(events.back().t_us, 700.0);
}

TEST(CalendarQueue, EqualTimestampsBreakTiesByKindThenBssThenSta) {
  CalendarQueue q(100.0);
  // All at t = 50, pushed in reverse of their required pop order.
  q.push(50.0, EventKind::kTxEnd, 0, 0);
  q.push(50.0, EventKind::kBackoffExpiry, 1, -1);
  q.push(50.0, EventKind::kBackoffExpiry, 0, -1);
  q.push(50.0, EventKind::kRoundStart, 0, -1);
  q.push(50.0, EventKind::kArrival, 0, 5);
  q.push(50.0, EventKind::kArrival, 0, 2);
  const std::vector<Event> events = drain(q);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, EventKind::kArrival);
  EXPECT_EQ(events[0].sta, 2);
  EXPECT_EQ(events[1].kind, EventKind::kArrival);
  EXPECT_EQ(events[1].sta, 5);
  EXPECT_EQ(events[2].kind, EventKind::kRoundStart);
  EXPECT_EQ(events[3].kind, EventKind::kBackoffExpiry);
  EXPECT_EQ(events[3].bss, 0);
  EXPECT_EQ(events[4].kind, EventKind::kBackoffExpiry);
  EXPECT_EQ(events[4].bss, 1);
  EXPECT_EQ(events[5].kind, EventKind::kTxEnd);
}

TEST(CalendarQueue, IdenticalKeysPopInPushOrder) {
  CalendarQueue q(100.0);
  for (int i = 0; i < 8; ++i) {
    q.push(25.0, EventKind::kArrival, 0, 3);
  }
  const std::vector<Event> events = drain(q);
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq) << "FIFO broken at " << i;
  }
}

TEST(CalendarQueue, OverflowBucketStillPopsInOrder) {
  CalendarQueue q(100.0);  // everything past ~100us shares one bucket
  q.push(5000.0, EventKind::kRoundStart, 2, -1);
  q.push(90.0, EventKind::kRoundStart, 0, -1);
  q.push(200.0, EventKind::kTxEnd, 0, 1);
  q.push(150.0, EventKind::kBackoffExpiry, 1, -1);
  const std::vector<Event> events = drain(q);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].t_us, 90.0);
  EXPECT_EQ(events[1].t_us, 150.0);
  EXPECT_EQ(events[2].t_us, 200.0);
  EXPECT_EQ(events[3].t_us, 5000.0);
}

TEST(CalendarQueue, InterleavedPushPopKeepsMonotoneTime) {
  CalendarQueue q(1000.0);
  q.push(10.0, EventKind::kRoundStart, 0, -1);
  double last = -1.0;
  // Each popped event schedules a later one, like the engine does.
  for (int i = 0; i < 50; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.next_time(), q.next_time());
    const Event e = q.pop();
    EXPECT_GE(e.t_us, last);
    last = e.t_us;
    if (i < 40) {
      q.push(e.t_us + 13.0, EventKind::kBackoffExpiry, 0, -1);
      // Same-timestamp reschedule: allowed, must not land behind the
      // cursor even exactly on a bucket boundary.
      if (i % 4 == 0) q.push(e.t_us, EventKind::kTxEnd, 0, 0);
    }
  }
}

TEST(CalendarQueue, SizeTracksPushesAndPops) {
  CalendarQueue q(100.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push(1.0, EventKind::kRoundStart, 0, -1);
  q.push(2.0, EventKind::kRoundStart, 1, -1);
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PopAndNextTimeThrowOnEmpty) {
  CalendarQueue q(100.0);
  EXPECT_THROW((void)q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  q.push(1.0, EventKind::kRoundStart, 0, -1);
  (void)q.pop();
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(CalendarQueue, TinyWidthLongHorizonCapsBucketCount) {
  // A pathological horizon/width ratio must trade width for memory, not
  // allocate millions of buckets — and still order correctly.
  CalendarQueue q(1e9, 1e-3);
  q.push(9.9e8, EventKind::kRoundStart, 0, -1);
  q.push(1.0, EventKind::kRoundStart, 1, -1);
  EXPECT_EQ(q.pop().bss, 1);
  EXPECT_EQ(q.pop().bss, 0);
}

}  // namespace
}  // namespace silence::net

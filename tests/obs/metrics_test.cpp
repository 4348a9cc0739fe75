// Registry semantics: interning, counter/gauge/histogram accumulation,
// power-of-two bucket placement, and — the load-bearing property — that
// merged snapshots are bit-identical no matter how many threads recorded
// the same set of values. Also the shared histogram JSON codec.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/scenario.h"
#include "obs/health/health.h"
#include "runner/json.h"

namespace silence::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::global().reset(); }
};

TEST_F(MetricsTest, BucketPlacement) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(7), 3u);
  EXPECT_EQ(histogram_bucket(8), 4u);
  // The last bucket is open-ended.
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 50), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<std::uint64_t>::max()),
            kHistogramBuckets - 1);
}

TEST_F(MetricsTest, BucketFloors) {
  EXPECT_EQ(histogram_bucket_floor(0), 0u);
  EXPECT_EQ(histogram_bucket_floor(1), 1u);
  EXPECT_EQ(histogram_bucket_floor(2), 2u);
  EXPECT_EQ(histogram_bucket_floor(3), 4u);
  EXPECT_EQ(histogram_bucket_floor(4), 8u);
  // Every value lands in the bucket whose floor it is >= to.
  for (std::uint64_t v : {1u, 2u, 3u, 5u, 100u, 4096u}) {
    const std::size_t b = histogram_bucket(v);
    EXPECT_GE(v, histogram_bucket_floor(b)) << "value " << v;
    if (b + 1 < kHistogramBuckets) {
      EXPECT_LT(v, histogram_bucket_floor(b + 1)) << "value " << v;
    }
  }
}

TEST_F(MetricsTest, InterningIsIdempotent) {
  auto& reg = Registry::global();
  const std::uint32_t a = reg.counter_id("obs_test.intern");
  const std::uint32_t b = reg.counter_id("obs_test.intern");
  EXPECT_EQ(a, b);
  // Counter / histogram / gauge namespaces are independent.
  EXPECT_NO_THROW(reg.histogram_id("obs_test.intern"));
  EXPECT_NO_THROW(reg.gauge_id("obs_test.intern"));
}

TEST_F(MetricsTest, CounterAccumulates) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.counter_id("obs_test.counter");
  reg.counter_add(id, 1);
  reg.counter_add(id, 41);
  const MetricsSnapshot snap = reg.snapshot();
  const CounterSnapshot* c = snap.counter("obs_test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 42u);
  EXPECT_EQ(snap.counter("obs_test.no_such_counter"), nullptr);
}

TEST_F(MetricsTest, HistogramRecordsCountSumMinMaxBuckets) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.histogram_id("obs_test.hist");
  for (std::uint64_t v : {5u, 0u, 100u, 7u}) reg.histogram_record(id, v);
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot* h = snap.histogram("obs_test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_EQ(h->sum, 112u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 100u);
  EXPECT_DOUBLE_EQ(h->mean(), 28.0);
  ASSERT_EQ(h->buckets.size(), kHistogramBuckets);
  EXPECT_EQ(h->buckets[histogram_bucket(0)], 1u);
  EXPECT_EQ(h->buckets[histogram_bucket(5)], 2u);  // 5 and 7 share bucket 3
  EXPECT_EQ(h->buckets[histogram_bucket(100)], 1u);
  std::uint64_t total = 0;
  for (std::uint64_t b : h->buckets) total += b;
  EXPECT_EQ(total, h->count);
}

TEST_F(MetricsTest, GaugeLastWriteWinsAndUnsetGaugesAbsent) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.gauge_id("obs_test.gauge");
  reg.gauge_id("obs_test.gauge_never_set");
  reg.gauge_set(id, 3);
  reg.gauge_set(id, -8);
  const MetricsSnapshot snap = reg.snapshot();
  const GaugeSnapshot* g = snap.gauge("obs_test.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, -8);
  EXPECT_EQ(snap.gauge("obs_test.gauge_never_set"), nullptr);
}

TEST_F(MetricsTest, SnapshotSortedByName) {
  auto& reg = Registry::global();
  reg.counter_add(reg.counter_id("obs_test.zz"), 1);
  reg.counter_add(reg.counter_id("obs_test.aa"), 1);
  const MetricsSnapshot snap = reg.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  for (std::size_t i = 1; i < snap.histograms.size(); ++i) {
    EXPECT_LT(snap.histograms[i - 1].name, snap.histograms[i].name);
  }
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsNames) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.counter_id("obs_test.reset_me");
  reg.counter_add(id, 9);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  const CounterSnapshot* c = snap.counter("obs_test.reset_me");
  ASSERT_NE(c, nullptr);  // the name survives a reset
  EXPECT_EQ(c->value, 0u);
  reg.counter_add(id, 2);  // the interned id is still valid
  EXPECT_EQ(reg.snapshot().counter("obs_test.reset_me")->value, 2u);
}

TEST_F(MetricsTest, ThreadBlocksOutliveTheirThreads) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.counter_id("obs_test.thread_counter");
  std::thread([&] { reg.counter_add(id, 5); }).join();
  std::thread([&] { reg.counter_add(id, 7); }).join();
  reg.counter_add(id, 1);
  EXPECT_EQ(reg.snapshot().counter("obs_test.thread_counter")->value, 13u);
}

// The determinism contract: the same recorded multiset of values yields a
// byte-identical serialized snapshot regardless of how the recording work
// was split across threads.
std::string run_partitioned_workload(unsigned threads) {
  auto& reg = Registry::global();
  reg.reset();
  const std::uint32_t cid = reg.counter_id("obs_test.det.counter");
  const std::uint32_t hid = reg.histogram_id("obs_test.det.hist");
  const std::uint32_t gid = reg.gauge_id("obs_test.det.gauge");
  constexpr std::size_t kTotal = 4096;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < kTotal; i += threads) {
        reg.counter_add(cid, i % 7 + 1);
        reg.histogram_record(hid, (i * 2654435761ull) % 1000000);
      }
    });
  }
  for (auto& th : pool) th.join();
  reg.gauge_set(gid, static_cast<std::int64_t>(kTotal));
  return metrics_json(reg.snapshot()).dump();
}

TEST_F(MetricsTest, MergeIsDeterministicAcrossThreadCounts) {
  const std::string one = run_partitioned_workload(1);
  const std::string two = run_partitioned_workload(2);
  const std::string eight = run_partitioned_workload(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // Sanity: the workload actually recorded something.
  EXPECT_NE(one.find("\"obs_test.det.counter\": "), std::string::npos);
  EXPECT_NE(one.find("\"obs_test.det.hist\""), std::string::npos);
}

TEST_F(MetricsTest, ConcurrentWritersAllLand) {
  auto& reg = Registry::global();
  reg.reset();
  const std::uint32_t id = reg.counter_id("obs_test.concurrent");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) reg.counter_add(id, 1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(reg.snapshot().counter("obs_test.concurrent")->value,
            kThreads * kPerThread);
}

// The fixed tail against the named metrics. Exits 0 when every check
// holds and names each failed one on stderr otherwise.
void check_fixed_tail_is_disjoint() {
  namespace health = obs::health;
  auto& reg = Registry::global();
  int failures = 0;
  const auto check = [&failures](bool holds, const char* what) {
    if (!holds) std::fprintf(stderr, "failed: %s\n", what);
    failures += holds ? 0 : 1;
  };

  // One sample in every fixed cell, through the health functions.
  for (std::size_t c = 0; c < kFixedCounters; ++c) {
    health::count(static_cast<health::Counter>(c), 1);
  }
  for (std::size_t sc = 0; sc < health::kSubcarriers; ++sc) {
    for (std::size_t w = 0; w < 3; ++w) {
      health::waterfall(static_cast<health::Waterfall>(w), sc, 1);
    }
    health::score(health::Truth::kActive, sc, 1);
    health::score(health::Truth::kSilent, sc, 1);
  }
  health::record_nabla_evm(1);
  check(reg.snapshot().empty(), "fixed cells reached the named snapshot");
  const FixedSnapshot fixed = reg.fixed_snapshot();
  for (const std::uint64_t c : fixed.counters) check(c == 1, "shared counter");
  for (const HistogramSnapshot& h : fixed.histograms) {
    check(h.count == 1, "shared histogram");
  }

  // Named ids stop at the caps, just below the tail.
  const health::HealthSnapshot before = health::snapshot();
  std::uint32_t counter = 0, histogram = 0;
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    counter = reg.counter_id("fill." + std::to_string(i));
  }
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    histogram = reg.histogram_id("fill." + std::to_string(i));
  }
  for (const auto intern : {&Registry::counter_id, &Registry::histogram_id}) {
    bool threw = false;
    try {
      (reg.*intern)("fill.over");
    } catch (const std::length_error&) {
      threw = true;
    }
    check(threw, "a name past the cap was interned");
  }
  reg.counter_add(counter, 1);
  reg.histogram_record(histogram, 1);
  check(health::snapshot() == before, "a named id wrote into the fixed tail");

  reg.reset();
  check(health::snapshot().empty(), "reset() left fixed cells behind");
  std::exit(failures == 0 ? 0 : 1);
}

// Runs in a fresh process: the case fills both name tables, and names
// outlive reset(), so here they would starve every later case that
// interns one.
TEST_F(MetricsTest, FixedTailIsDisjointFromNamedMetrics) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(check_fixed_tail_is_disjoint(), ::testing::ExitedWithCode(0),
              "");
}

HistogramSnapshot histogram_of(const std::vector<std::uint64_t>& values) {
  HistogramSnapshot h;
  for (const std::uint64_t v : values) {
    if (h.count == 0 || v < h.min) h.min = v;
    if (h.count == 0 || v > h.max) h.max = v;
    ++h.count;
    h.sum += v;
    ++h.buckets[histogram_bucket(v)];
  }
  return h;
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  const HistogramSnapshot h = histogram_of({});
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, ExtremesAreExact) {
  const HistogramSnapshot h = histogram_of({3, 100, 9000});
  EXPECT_EQ(h.quantile(0.0), 3.0);
  EXPECT_EQ(h.quantile(-1.0), 3.0);
  EXPECT_EQ(h.quantile(1.0), 9000.0);
  EXPECT_EQ(h.quantile(2.0), 9000.0);
}

TEST(HistogramQuantile, InterpolatesWithinABucket) {
  // 100 samples of the same value: every quantile must clamp to it —
  // bucket interpolation cannot wander outside the observed range.
  const HistogramSnapshot h =
      histogram_of(std::vector<std::uint64_t>(100, 700));
  EXPECT_EQ(h.quantile(0.50), 700.0);
  EXPECT_EQ(h.quantile(0.99), 700.0);
}

TEST(HistogramQuantile, SplitsMassAcrossBuckets) {
  // 10 small samples (bucket of 1) and 10 large ones (bucket of 1500):
  // the median sits at the boundary between the two buckets, p95 inside
  // the upper one, bounded by the observed max.
  std::vector<std::uint64_t> values(10, 1);
  values.insert(values.end(), 10, 1500);
  const HistogramSnapshot h = histogram_of(values);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_GT(p95, 1024.0);
  EXPECT_LE(p95, 1500.0);
  // Quantiles are monotone in q and never exceed the observed range.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 1500.0);
}

TEST(HistogramSnapshotAdd, EmptyIsIdentityAndOrderDoesNotMatter) {
  HistogramSnapshot a = histogram_of({3, 100, 9000});
  a.name = "a";
  const HistogramSnapshot b = histogram_of({5, 7, 7, 12000});
  HistogramSnapshot sum = a;
  sum += histogram_of({});
  EXPECT_EQ(sum, a);

  // min, max, count, sum and buckets combine; the left name is kept.
  sum += b;
  HistogramSnapshot expected = histogram_of({3, 100, 9000, 5, 7, 7, 12000});
  expected.name = "a";
  EXPECT_EQ(sum, expected);
  HistogramSnapshot reversed = histogram_of({});
  reversed += b;
  reversed += a;
  reversed.name = "a";
  EXPECT_EQ(reversed, sum);
}

// One encoding, three writers: histogram_json, SlotHist::to_json and the
// health cells render the same bytes. The expected strings pin them, so
// result JSONs and sidecars already on disk keep parsing and diffing.
TEST(HistogramCodec, RendersTheSharedEncoding) {
  // One sample in each of the 40 buckets, the open-ended last one at the
  // health quantizer's 2^52 cap.
  std::vector<std::uint64_t> full_range = {0};
  for (int k = 0; k <= 37; ++k) full_range.push_back(std::uint64_t{1} << k);
  full_range.push_back(std::uint64_t{1} << 52);
  const struct {
    std::vector<std::uint64_t> values;
    const char* expected;
  } kCases[] = {
      {{}, R"({"count":0,"sum":0,"min":0,"max":0,"buckets":[]})"},
      {{300},
       R"({"count":1,"sum":300,"min":300,"max":300,)"
       R"("buckets":[0,0,0,0,0,0,0,0,0,1]})"},
      {full_range,
       R"({"count":40,"sum":4503874505277439,"min":0,)"
       R"("max":4503599627370496,"buckets":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,)"
       R"(1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]})"},
  };
  for (const auto& c : kCases) {
    net::SlotHist slot;
    HistogramSnapshot h;
    for (const std::uint64_t v : c.values) {
      slot.record(v);
      HistogramSnapshot one;
      one.count = 1;
      one.sum = one.min = one.max = v;
      one.buckets[histogram_bucket(v)] = 1;
      h += one;
    }
    health::HealthSnapshot cells;
    cells.nabla_evm = h;
    cells.waterfalls[0][5] = h;
    const runner::Json doc = health::health_json(cells);
    const runner::Json& waterfall =
        doc.find("waterfalls")->find("snr_x256")->find("subcarriers")
            ->as_array()[5];
    EXPECT_EQ(histogram_json(h).dump_compact(), c.expected);
    EXPECT_EQ(slot.to_json().dump_compact(), c.expected);
    EXPECT_EQ(doc.find("nabla_evm_x4096")->dump_compact(), c.expected);
    EXPECT_EQ(waterfall.dump_compact(), c.expected);
    EXPECT_EQ(histogram_from_json(histogram_json(h)), h);
  }
}

TEST(HistogramCodec, RejectsMalformedCells) {
  HistogramSnapshot h;
  h.count = 1;
  h.buckets[0] = 1;
  const runner::Json good = histogram_json(h);
  for (const char* missing : {"count", "sum", "min", "max", "buckets"}) {
    runner::Json pruned = runner::Json::object();
    for (const auto& [key, value] : good.as_object()) {
      if (key != missing) pruned.set(key, value);
    }
    EXPECT_THROW(histogram_from_json(pruned), std::runtime_error) << missing;
  }
  runner::Json too_many = good;
  runner::Json buckets = runner::Json::array();
  for (std::size_t b = 0; b < kHistogramBuckets + 1; ++b) buckets.push_back(0);
  too_many.set("buckets", std::move(buckets));
  EXPECT_THROW(histogram_from_json(too_many), std::runtime_error);
}

}  // namespace
}  // namespace silence::obs

// merge_metrics_json: the reduction that folds the `metrics` sections of
// per-sweep sidecars into one document (silence_campaign merges across
// sweeps).
// Counters sum, gauges take the max, histograms merge bucket-wise with
// mean/p50/p95/p99 recomputed from the combined buckets.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "runner/json.h"

namespace silence::obs {
namespace {

using runner::Json;

Json doc_with_counters(std::vector<std::pair<std::string, std::int64_t>> cs,
                       std::vector<std::pair<std::string, std::int64_t>> gs =
                           {}) {
  Json doc = Json::object();
  Json counters = Json::object();
  for (auto& [name, value] : cs) counters.set(name, value);
  doc.set("counters", std::move(counters));
  if (!gs.empty()) {
    Json gauges = Json::object();
    for (auto& [name, value] : gs) gauges.set(name, value);
    doc.set("gauges", std::move(gauges));
  }
  return doc;
}

TEST(MetricsMerge, CountersSumAcrossDocs) {
  const Json merged = merge_metrics_json(
      {doc_with_counters({{"runner.trials", 40}, {"phy.tx", 7}}),
       doc_with_counters({{"runner.trials", 24}}),
       doc_with_counters({{"net.drops", 1}})});
  const Json& counters = *merged.find("counters");
  EXPECT_EQ(counters.find("runner.trials")->as_int(), 64);
  EXPECT_EQ(counters.find("phy.tx")->as_int(), 7);
  EXPECT_EQ(counters.find("net.drops")->as_int(), 1);
}

TEST(MetricsMerge, GaugesTakeTheMax) {
  // A gauge like runner.threads is a level, not a flow: across shards the
  // campaign-level answer is the peak, not a sum.
  const Json merged = merge_metrics_json(
      {doc_with_counters({}, {{"runner.threads", 4}, {"queue.depth", -2}}),
       doc_with_counters({}, {{"runner.threads", 2}, {"queue.depth", -5}})});
  const Json& gauges = *merged.find("gauges");
  EXPECT_EQ(gauges.find("runner.threads")->as_int(), 4);
  EXPECT_EQ(gauges.find("queue.depth")->as_int(), -2);
}

TEST(MetricsMerge, MissingSectionsAndEmptyInputTolerated) {
  // Sidecars from an SILENCE_OBS=OFF worker may lack whole sections.
  const Json merged =
      merge_metrics_json({doc_with_counters({{"a", 1}}), Json::object()});
  EXPECT_EQ(merged.find("counters")->find("a")->as_int(), 1);
  EXPECT_EQ(merged.find("gauges")->size(), 0u);
  EXPECT_EQ(merged.find("histograms")->size(), 0u);

  const Json empty = merge_metrics_json({});
  EXPECT_EQ(empty.find("counters")->size(), 0u);
}

HistogramSnapshot make_hist(const std::string& name,
                                 std::vector<std::pair<std::size_t,
                                                       std::uint64_t>> fills,
                                 std::uint64_t min, std::uint64_t max,
                                 std::uint64_t sum) {
  HistogramSnapshot h;
  h.name = name;
  for (auto& [bucket, n] : fills) {
    h.buckets[bucket] += n;
    h.count += n;
  }
  h.min = min;
  h.max = max;
  h.sum = sum;
  return h;
}

TEST(MetricsMerge, HistogramMergeIsByteIdenticalToCombinedSnapshot) {
  // Two shard sidecars vs the snapshot a single process covering both
  // shards would have produced: merging the docs must reproduce the
  // combined document byte-for-byte — including mean/p50/p95/p99, which
  // metrics_json recomputes from the merged buckets.
  MetricsSnapshot a;
  a.counters.push_back({"runner.trials", 20});
  a.histograms.push_back(
      make_hist("runner.trial.ns", {{3, 10}, {5, 10}}, 9, 40, 400));
  MetricsSnapshot b;
  b.counters.push_back({"runner.trials", 20});
  // Trailing buckets beyond index 4 are zero here, so metrics_json trims
  // b's bucket array shorter than a's — the merge must still line the
  // arrays up by position.
  b.histograms.push_back(make_hist("runner.trial.ns", {{4, 20}}, 16, 31, 500));

  MetricsSnapshot combined;
  combined.counters.push_back({"runner.trials", 40});
  combined.histograms.push_back(make_hist(
      "runner.trial.ns", {{3, 10}, {4, 20}, {5, 10}}, 9, 40, 900));

  const Json merged = merge_metrics_json({metrics_json(a), metrics_json(b)});
  EXPECT_EQ(merged.dump_compact(), metrics_json(combined).dump_compact());
}

TEST(MetricsMerge, EmptyHistogramEntriesAreSkipped) {
  // A worker whose span never fired writes count=0; it must not clobber
  // the min/max of docs that did observe samples.
  MetricsSnapshot a;
  a.histograms.push_back(make_hist("h.ns", {{2, 4}}, 5, 7, 24));
  MetricsSnapshot b;
  b.histograms.push_back(make_hist("h.ns", {}, 0, 0, 0));

  const Json merged = merge_metrics_json({metrics_json(a), metrics_json(b)});
  const Json& h = *merged.find("histograms")->find("h.ns");
  EXPECT_EQ(h.find("count")->as_int(), 4);
  EXPECT_EQ(h.find("min")->as_int(), 5);
  EXPECT_EQ(h.find("max")->as_int(), 7);
}

TEST(MetricsMerge, EmptySidecarMergeIsIdentity) {
  // Merging a real sidecar with a fully empty document (a sweep that
  // recorded nothing at all) must reproduce the real one byte-for-byte.
  MetricsSnapshot a;
  a.counters.push_back({"runner.trials", 12});
  a.gauges.push_back({"runner.threads", 4});
  a.histograms.push_back(make_hist("h.ns", {{1, 3}, {6, 9}}, 2, 100, 640));
  const Json doc = metrics_json(a);
  const Json empty = metrics_json(MetricsSnapshot{});
  EXPECT_EQ(merge_metrics_json({doc, empty}).dump_compact(),
            doc.dump_compact());
  EXPECT_EQ(merge_metrics_json({empty, doc}).dump_compact(),
            doc.dump_compact());
}

TEST(MetricsMerge, SingletonNegativeGaugeSurvives) {
  // max() over one all-negative gauge must keep its value, not clamp at
  // an implicit zero.
  const Json merged =
      merge_metrics_json({doc_with_counters({}, {{"queue.headroom", -17}})});
  EXPECT_EQ(merged.find("gauges")->find("queue.headroom")->as_int(), -17);
}

TEST(MetricsMerge, RejectsHistogramWithTooManyBuckets) {
  // A sidecar claiming more buckets than the fixed layout holds is
  // corrupt; merging it positionally would silently misbin, so it must
  // throw instead.
  Json entry = Json::object();
  entry.set("count", 4);
  entry.set("sum", 10);
  entry.set("min", 1);
  entry.set("max", 4);
  Json buckets = Json::array();
  for (std::size_t b = 0; b < kHistogramBuckets + 1; ++b) {
    buckets.push_back(1);
  }
  entry.set("buckets", std::move(buckets));
  Json histograms = Json::object();
  histograms.set("h.ns", std::move(entry));
  Json doc = Json::object();
  doc.set("histograms", std::move(histograms));
  EXPECT_THROW(merge_metrics_json({doc}), std::runtime_error);
}

TEST(MetricsMerge, MalformedDocsAreRejected) {
  Json bad_section = Json::object();
  bad_section.set("counters", Json::array());
  EXPECT_THROW(merge_metrics_json({bad_section}), std::runtime_error);

  Json bad_hist = Json::object();
  Json histograms = Json::object();
  Json entry = Json::object();
  entry.set("count", 3);  // missing sum/min/max/buckets
  histograms.set("h.ns", std::move(entry));
  bad_hist.set("histograms", std::move(histograms));
  EXPECT_THROW(merge_metrics_json({bad_hist}), std::runtime_error);
}

}  // namespace
}  // namespace silence::obs

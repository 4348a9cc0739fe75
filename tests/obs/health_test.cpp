// PHY signal health (obs/health): determinism of the snapshot of its
// fixed registry cells at any thread count, exactness of the quantization
// (including the decision clamp that makes the score histograms
// reproduce confusion counts), and the JSON round trip / sidecar merge.
#include "obs/health/health.h"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <thread>
#include <vector>

#include "runner/json.h"
#include "runner/sinks.h"

namespace silence::obs::health {
namespace {

#if SILENCE_OBS_ON

// Deterministic workload: `n` records spread over every cell family.
// Recording it from any number of threads in any interleaving must
// produce the same snapshot, because every accumulated quantity is an
// unsigned integer combined by sums (and min/max).
void record_workload(std::uint64_t lo, std::uint64_t hi) {
  for (std::uint64_t i = lo; i < hi; ++i) {
    const std::size_t sc = static_cast<std::size_t>(i % kSubcarriers);
    count(Counter::kPlans, 1);
    count(Counter::kBitsPlanned, i % 7);
    waterfall(Waterfall::kSnr, sc, i % 1000);
    waterfall(Waterfall::kEvm, sc, i % 300);
    waterfall(Waterfall::kChanMag, sc, i % 2048);
    score(i % 3 == 0 ? Truth::kSilent : Truth::kActive, sc, (i * 37) % 4096);
    record_nabla_evm(i % 512);
  }
}

// Zeroes every registry cell, the health cells included.
void reset() { obs::Registry::global().reset(); }

std::string snapshot_bytes(int threads, std::uint64_t total) {
  reset();
  std::vector<std::thread> pool;
  const std::uint64_t per = total / static_cast<std::uint64_t>(threads);
  for (int t = 0; t < threads; ++t) {
    const std::uint64_t lo = per * static_cast<std::uint64_t>(t);
    const std::uint64_t hi =
        t == threads - 1 ? total : lo + per;
    pool.emplace_back([lo, hi] { record_workload(lo, hi); });
  }
  for (std::thread& t : pool) t.join();
  const std::string bytes = health_json(snapshot()).dump();
  reset();
  return bytes;
}

TEST(HealthRegistry, SnapshotByteIdenticalAtAnyThreadCount) {
  const std::string one = snapshot_bytes(1, 6000);
  const std::string two = snapshot_bytes(2, 6000);
  const std::string eight = snapshot_bytes(8, 6000);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("\"schema\": \"cos.health.v1\""), std::string::npos);
}

TEST(HealthRegistry, CountersAndCellsAccumulate) {
  reset();
  count(Counter::kMisses, 3);
  count(Counter::kMisses, 2);
  waterfall(Waterfall::kEvm, 7, 40);
  waterfall(Waterfall::kEvm, 7, 10);
  score(Truth::kSilent, 0, 100);
  const HealthSnapshot snap = snapshot();
  EXPECT_EQ(snap.counters[static_cast<std::size_t>(Counter::kMisses)], 5u);
  const HistogramSnapshot& evm =
      snap.waterfalls[static_cast<std::size_t>(Waterfall::kEvm)][7];
  EXPECT_EQ(evm.count, 2u);
  EXPECT_EQ(evm.sum, 50u);
  EXPECT_EQ(evm.min, 10u);
  EXPECT_EQ(evm.max, 40u);
  EXPECT_EQ(
      snap.scores[static_cast<std::size_t>(Truth::kSilent)][0].count, 1u);
  EXPECT_FALSE(snap.empty());
  reset();
  EXPECT_TRUE(snapshot().empty());
}

TEST(HealthRegistry, OutOfRangeSubcarrierIgnored) {
  reset();
  waterfall(Waterfall::kSnr, kSubcarriers, 5);
  score(Truth::kActive, kSubcarriers + 3, 5);
  EXPECT_TRUE(snapshot().empty());
  reset();
}

TEST(HealthJson, RoundTripIsExact) {
  reset();
  record_workload(0, 997);
  const HealthSnapshot snap = snapshot();
  reset();
  const runner::Json doc = health_json(snap);
  const HealthSnapshot back = health_from_json(doc);
  EXPECT_EQ(back, snap);
  // And byte-stable through a re-render + reparse.
  EXPECT_EQ(health_json(back).dump(),
            runner::Json::parse(doc.dump()).dump());
}

// A sidecar document holding only the current health snapshot.
runner::Json health_sidecar() {
  runner::Json doc = runner::Json::object();
  doc.set("health", health_json(snapshot()));
  return doc;
}

TEST(HealthJson, MergeEqualsSingleRecording) {
  // Two "shards" recording disjoint halves, merged as sidecar documents,
  // must be byte-identical to one process recording the whole workload —
  // the campaign's cross-sweep health merge in miniature.
  reset();
  record_workload(0, 1500);
  const runner::Json shard_a = health_sidecar();
  reset();
  record_workload(1500, 3000);
  const runner::Json shard_b = health_sidecar();
  reset();
  record_workload(0, 3000);
  const std::string whole = health_json(snapshot()).dump();
  reset();
  const auto merged_health = [](const std::vector<runner::Json>& docs) {
    return runner::merge_obs_json(docs).find("health")->dump();
  };
  EXPECT_EQ(merged_health({shard_a, shard_b}), whole);
  // Merge order must not matter.
  EXPECT_EQ(merged_health({shard_b, shard_a}), whole);
}

#endif  // SILENCE_OBS_ON

TEST(HealthQuantize, RoundsDownAndClamps) {
  EXPECT_EQ(quantize(0.0, kEvmScale), 0u);
  EXPECT_EQ(quantize(-1.5, kEvmScale), 0u);
  EXPECT_EQ(quantize(std::nan(""), kEvmScale), 0u);
  EXPECT_EQ(quantize(1.0, kEvmScale), 4096u);
  EXPECT_EQ(quantize(0.25, kSnrScale), 64u);
  // Round-down, not round-to-nearest.
  EXPECT_EQ(quantize(0.9999, 256.0), 255u);
  // Cap at 2^52: exact in a double-typed JSON cell.
  const std::uint64_t cap = std::uint64_t{1} << 52;
  EXPECT_EQ(quantize(1e300, 256.0), cap);
  EXPECT_EQ(quantize(std::numeric_limits<double>::infinity(), 1.0), cap);
}

TEST(HealthQuantize, ScoreCarriesTheDecision) {
  // Declared silent (energy < threshold) clamps to <= 255; declared
  // active clamps to >= 256 — even when floating-point rounding of the
  // ratio would land on the wrong side of the boundary.
  EXPECT_LT(quantize_score(0.0, 1.0), kScoreThreshold);
  EXPECT_LT(quantize_score(0.999999, 1.0), kScoreThreshold);
  // A ratio that rounds to exactly 256/256 but whose energy is below
  // the threshold must still land in the silent half.
  EXPECT_LT(quantize_score(std::nextafter(1.0, 0.0), 1.0),
            kScoreThreshold);
  EXPECT_GE(quantize_score(1.0, 1.0), kScoreThreshold);
  EXPECT_GE(quantize_score(1.0000001, 1.0), kScoreThreshold);
  // Plain fixed-point away from the boundary.
  EXPECT_EQ(quantize_score(0.5, 1.0), 128u);
  EXPECT_EQ(quantize_score(4.0, 1.0), 1024u);
  // Degenerate threshold 0: `energy < threshold` is always false, so
  // every cell is declared active (matching detect_silences).
  EXPECT_GE(quantize_score(0.5, 0.0), kScoreThreshold);
  EXPECT_GE(quantize_score(0.0, 0.0), kScoreThreshold);
}

TEST(HealthJson, EmptySnapshotIsEmptyAndParses) {
  const HealthSnapshot empty{};
  EXPECT_TRUE(empty.empty());
  const runner::Json doc = health_json(empty);
  EXPECT_TRUE(health_from_json(doc).empty());
}

TEST(HealthJson, MalformedDocumentThrows) {
  EXPECT_THROW(health_from_json(runner::Json::parse("{}")),
               std::runtime_error);
  EXPECT_THROW(
      health_from_json(runner::Json::parse("{\"schema\": \"bogus\"}")),
      std::runtime_error);
}

}  // namespace
}  // namespace silence::obs::health

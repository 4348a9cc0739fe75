#include "net/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "phy/workspace.h"
#include "runner/json.h"
#include "runner/sweep.h"

namespace silence::net {
namespace {

Scenario test_scenario(int stations) {
  Scenario sc;
  sc.topology.bss[0].num_stations = stations;
  sc.duration_us = 8e3;  // short: keep unit runs quick
  return sc;
}

TEST(Scenario, JsonRoundTripsEveryField) {
  Scenario sc = test_scenario(5);
  sc.mpdu_octets = 300;
  sc.max_mpdus_per_frame = 2;
  sc.topology.bss[0].snr_db_near = 21.5;
  sc.topology.bss[0].snr_db_far = 9.25;
  sc.topology.bss.push_back({.channel = 40, .num_stations = 3});
  sc.topology.carrier_sense.assign(8 * 8, 1);
  sc.topology.carrier_sense[1] = 0;
  sc.topology.obss_pulse_power = 1.5;
  sc.topology.adjacent_leak = 0.5;
  sc.traffic.kind = TrafficModel::Kind::kOnOff;
  sc.traffic.arrival_rate_fps = 1500.0;
  sc.traffic.mean_on_us = 2500.0;
  sc.traffic.mean_off_us = 3500.0;
  sc.control_bits_per_frame = 32;
  sc.cos.bits_per_interval = 3;
  sc.cos.control_subcarriers = {4, 5, 6, 7};
  sc.profile.doppler_hz = 3.5;
  sc.fixed_rate_mbps = 24;
  sc.use_selection_feedback = false;

  const Scenario back = Scenario::from_json(sc.to_json());
  EXPECT_EQ(back, sc);
  // The serializer is deterministic, so JSON equality must hold too —
  // including every double's exact bit pattern.
  EXPECT_EQ(back.to_json().dump_compact(), sc.to_json().dump_compact());
}

TEST(Scenario, JsonRoundTripsDefaults) {
  const Scenario sc;
  EXPECT_EQ(Scenario::from_json(sc.to_json()), sc);
}

TEST(Scenario, FromJsonRejectsMissingFields) {
  const runner::Json full = Scenario{}.to_json();
  for (const auto& [key, value] : full.as_object()) {
    runner::Json pruned = runner::Json::object();
    for (const auto& [k, v] : full.as_object()) {
      if (k != key) pruned.set(k, v);
    }
    EXPECT_THROW(Scenario::from_json(pruned), std::runtime_error)
        << "missing '" << key << "' was accepted";
  }
}

TEST(RunScenario, RejectsMalformedScenarios) {
  Scenario sc = test_scenario(0);
  EXPECT_THROW(run_scenario(sc, 1), std::invalid_argument);
  sc = test_scenario(2);
  sc.duration_us = 0.0;
  EXPECT_THROW(run_scenario(sc, 1), std::invalid_argument);
  sc = test_scenario(2);
  sc.mpdu_octets = 5000;  // cannot fit one subframe into a PPDU
  EXPECT_THROW(run_scenario(sc, 1), std::invalid_argument);
}

TEST(RunScenario, OutcomeIsAPureFunctionOfScenarioAndSeed) {
  const Scenario sc = test_scenario(4);
  const NetResult first = run_scenario(sc, 7);
  const NetResult second = run_scenario(sc, 7);
  EXPECT_EQ(first.to_json().dump_compact(), second.to_json().dump_compact());

  const NetResult other = run_scenario(sc, 8);
  EXPECT_NE(first.to_json().dump_compact(), other.to_json().dump_compact());
}

TEST(RunScenario, ReceivesThroughItsOwnWorkspace) {
  // Every session receives through the one PhyWorkspace its NetSim owns,
  // never the thread's default: a long-lived workspace below each
  // exchange's per-packet buffers makes glibc trim and regrow the heap
  // top on almost every packet (docs/ARCHITECTURE.md, "One PHY chain").
  // A fresh thread starts with an empty default workspace; it must still
  // be empty after a whole scenario has run on that thread.
  std::size_t corrected = 0;
  std::size_t llrs = 0;
  std::size_t mother = 0;
  std::size_t delivered = 0;
  std::thread worker([&] {
    const NetResult r = run_scenario(test_scenario(3), 5);
    for (const StaStats& s : r.stations) delivered += s.mpdus_delivered;
    const PhyWorkspace& ws = default_phy_workspace();
    corrected = ws.corrected.capacity();
    llrs = ws.llrs.capacity();
    mother = ws.mother.capacity();
  });
  worker.join();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(corrected, 0u);
  EXPECT_EQ(llrs, 0u);
  EXPECT_EQ(mother, 0u);
}

TEST(RunScenario, DeliversDataAndFreeControlBits) {
  const NetResult r = run_scenario(test_scenario(4), 3);
  EXPECT_GT(r.aggregate_throughput_mbps(), 1.0);
  EXPECT_GT(r.control_goodput_kbps(), 0.0);
  // CoS control rides inside data frames: DCF never spends explicit
  // control airtime.
  EXPECT_EQ(r.airtime.control_us, 0.0);
  EXPECT_GT(r.jain_fairness(), 0.0);
  EXPECT_LE(r.jain_fairness(), 1.0 + 1e-12);
  std::size_t mpdus = 0;
  for (const StaStats& s : r.stations) mpdus += s.mpdus_delivered;
  EXPECT_GT(mpdus, 0u);
}

// MAC scheduler invariants under the net/ scheduler: every contention
// round resolves to exactly one transmitter or a collision of >= 2
// stations, and the accounted airtime partitions the elapsed time. A
// lone station has nobody to collide with.
TEST(RunScenario, SchedulerInvariantsHold) {
  for (const int n : {1, 8}) {
    SCOPED_TRACE(n);
    const NetResult r = run_scenario(test_scenario(n), 11);

    ASSERT_EQ(r.stations.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(r.tx_rounds + r.collision_rounds, r.contention_rounds);

    // No two winners per slot: each tx round has exactly one transmitter.
    std::size_t sta_tx = 0, sta_collisions = 0;
    for (const StaStats& s : r.stations) {
      sta_tx += s.tx_rounds;
      sta_collisions += s.collisions;
    }
    EXPECT_EQ(sta_tx, r.tx_rounds);
    // Every collision round involved at least two stations.
    EXPECT_GE(sta_collisions, 2 * r.collision_rounds);
    if (n == 1) {
      EXPECT_GT(r.tx_rounds, 0u);
      EXPECT_EQ(r.collision_rounds, 0u);
      EXPECT_EQ(r.airtime.collision_us, 0.0);
    }

    // Airtime accounting: the breakdown partitions the elapsed time, and
    // the data share is exactly the per-station PPDU airtimes.
    EXPECT_NEAR(r.airtime.total_us(), r.elapsed_us, 1e-6 * r.elapsed_us);
    double sta_air = 0.0;
    for (const StaStats& s : r.stations) sta_air += s.data_airtime_us;
    EXPECT_NEAR(sta_air, r.airtime.data_us, 1e-9 * r.airtime.data_us + 1e-9);
  }
}

// Aggregation airtime accounting: with a fixed rate every PPDU is the
// same size, so data airtime must be an exact multiple of one frame's
// airtime.
TEST(RunScenario, AggregationAirtimeIsPerFrameConstant) {
  Scenario sc = test_scenario(2);
  sc.fixed_rate_mbps = 12;
  const NetResult r = run_scenario(sc, 5);
  ASSERT_GT(r.tx_rounds, 0u);
  const double per_frame = r.airtime.data_us / static_cast<double>(r.tx_rounds);
  for (const StaStats& s : r.stations) {
    if (s.tx_rounds == 0) continue;
    EXPECT_NEAR(s.data_airtime_us,
                per_frame * static_cast<double>(s.tx_rounds),
                1e-6 * s.data_airtime_us);
  }
}

TEST(NetResult, MergeAccumulatesAndChecksShape) {
  const Scenario sc = test_scenario(3);
  const NetResult a = run_scenario(sc, 21);
  const NetResult b = run_scenario(sc, 22);
  NetResult merged;  // empty adopts
  merged += a;
  merged += b;
  ASSERT_EQ(merged.stations.size(), 3u);
  EXPECT_EQ(merged.contention_rounds,
            a.contention_rounds + b.contention_rounds);
  EXPECT_DOUBLE_EQ(merged.elapsed_us, a.elapsed_us + b.elapsed_us);
  EXPECT_EQ(merged.stations[0].data_bits,
            a.stations[0].data_bits + b.stations[0].data_bits);

  NetResult wrong = run_scenario(test_scenario(2), 1);
  EXPECT_THROW(wrong += a, std::invalid_argument);
}

TEST(SlotHist, RecordTracksCountSumMinMax) {
  SlotHist h;
  EXPECT_TRUE(h.buckets.empty());  // empty until the first sample
  h.record(5);
  h.record(100);
  h.record(1);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 106u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_FALSE(h.buckets.empty());
  EXPECT_NEAR(h.mean(), 106.0 / 3.0, 1e-12);
}

TEST(SlotHist, MergeMatchesRecordingEverythingIntoOne) {
  SlotHist a, b, all;
  for (std::uint64_t v : {3ull, 17ull, 200ull}) {
    a.record(v);
    all.record(v);
  }
  for (std::uint64_t v : {1ull, 900ull}) {
    b.record(v);
    all.record(v);
  }
  SlotHist merged = a;
  merged += b;
  EXPECT_EQ(merged, all);
  // Merging an empty side is the identity, both directions.
  SlotHist empty;
  merged += empty;
  EXPECT_EQ(merged, all);
  empty += all;
  EXPECT_EQ(empty, all);
}

TEST(SlotHist, QuantilesAreOrderedAndBracketed) {
  SlotHist h;
  for (std::uint64_t v = 1; v <= 500; ++v) h.record(v);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, static_cast<double>(h.min));
  EXPECT_LE(p99, static_cast<double>(h.max));
}

// The queueing view must be consistent with the scheduler tallies:
// every winning TX records one head-of-line wait, and consecutive wins
// of one station are one fewer than its TX count.
TEST(RunScenario, LatencyHistogramsMatchSchedulerCounts) {
  const NetResult r = run_scenario(test_scenario(6), 13);
  ASSERT_GT(r.tx_rounds, 0u);
  for (const StaStats& s : r.stations) {
    EXPECT_EQ(s.hol_wait_slots.count, s.tx_rounds);
    EXPECT_EQ(s.inter_tx_gap_slots.count,
              s.tx_rounds > 0 ? s.tx_rounds - 1 : 0u);
  }
}

// The determinism regression the runner contract promises: a 16-station
// scenario swept at 1, 2 and 8 threads reduces to byte-identical JSON.
TEST(RunScenario, SweepIsBitIdenticalAcrossThreadCounts) {
  Scenario sc = test_scenario(16);
  sc.duration_us = 4e3;
  runner::SweepGrid<int> grid;
  grid.points = {16};
  grid.trials = 4;
  grid.base_seed = 99;

  std::vector<std::string> digests;
  for (const int threads : {1, 2, 8}) {
    const auto outcome = runner::run_sweep(
        grid, {.threads = threads, .chunk = 1},
        [&](const int&, const runner::TrialContext& ctx) {
          return run_scenario(sc, ctx.seed);
        });
    ASSERT_EQ(outcome.point_results.size(), 1u);
    digests.push_back(outcome.point_results[0].to_json().dump_compact());
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

}  // namespace
}  // namespace silence::net

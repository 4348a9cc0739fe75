// The event-driven network engine (net/engine.h): legacy byte-identity
// pinned against outputs captured from the slotted loop this engine
// replaced, the stateful NetSim stepping API, and the multi-BSS
// physics — OBSS interference, hidden terminals and open-loop traffic.
#include "net/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/scenario.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "runner/json.h"
#include "runner/sweep.h"

namespace silence::net {
namespace {

// NetResult::to_json() of three scenarios, captured from the slotted
// single-AP run_scenario at the commit that introduced the event engine
// (same PHY, same seeds). The engine must reproduce these byte-for-byte:
// same arithmetic, same per-station RNG stream consumption, same fading
// advance sequences. The engine-only keys ("events", "obss_overlap_us")
// are stripped before comparing.
//
// Golden 1: default 4-station cell, duration 8e3, seed 7.
constexpr const char* kGolden4Sta =
    R"({"elapsed_us":8104,"contention_rounds":15,"tx_rounds":12,"collision_rounds":3,"airtime":{"data_us":4216,"ack_us":528,"control_us":0,"idle_us":1260,"collision_us":2100},"stations":[{"tx_rounds":4,"collisions":1,"frames_delivered":3,"frames_lost":1,"mpdus_delivered":12,"data_bits":38400,"control_bits_sent":112,"control_bits_correct":88,"data_airtime_us":1072,"hol_wait_slots":{"count":4,"sum":576,"min":9,"max":299,"buckets":[0,0,0,0,1,0,0,1,1,1]},"inter_tx_gap_slots":{"count":3,"sum":675,"min":162,"max":335,"buckets":[0,0,0,0,0,0,0,0,2,1]}},{"tx_rounds":4,"collisions":1,"frames_delivered":4,"frames_lost":0,"mpdus_delivered":16,"data_bits":51200,"control_bits_sent":32,"control_bits_correct":0,"data_airtime_us":1200,"hol_wait_slots":{"count":4,"sum":608,"min":51,"max":301,"buckets":[0,0,0,0,0,0,2,0,1,1]},"inter_tx_gap_slots":{"count":3,"sum":677,"min":92,"max":341,"buckets":[0,0,0,0,0,0,0,1,1,1]}},{"tx_rounds":2,"collisions":2,"frames_delivered":2,"frames_lost":0,"mpdus_delivered":8,"data_bits":25600,"control_bits_sent":88,"control_bits_correct":52,"data_airtime_us":784,"hol_wait_slots":{"count":2,"sum":723,"min":176,"max":547,"buckets":[0,0,0,0,0,0,0,0,1,0,1]},"inter_tx_gap_slots":{"count":1,"sum":226,"min":226,"max":226,"buckets":[0,0,0,0,0,0,0,0,1]}},{"tx_rounds":2,"collisions":2,"frames_delivered":2,"frames_lost":0,"mpdus_delivered":8,"data_bits":25600,"control_bits_sent":96,"control_bits_correct":48,"data_airtime_us":1160,"hol_wait_slots":{"count":2,"sum":758,"min":152,"max":606,"buckets":[0,0,0,0,0,0,0,0,1,0,1]},"inter_tx_gap_slots":{"count":1,"sum":223,"min":223,"max":223,"buckets":[0,0,0,0,0,0,0,0,1]}}]})";

// Golden 2: 2 stations, duration 6e3, fixed rate 12 Mb/s, seed 5.
constexpr const char* kGolden2StaFixedRate =
    R"({"elapsed_us":6321,"contention_rounds":5,"tx_rounds":5,"collision_rounds":0,"airtime":{"data_us":5680,"ack_us":220,"control_us":0,"idle_us":421,"collision_us":0},"stations":[{"tx_rounds":3,"collisions":0,"frames_delivered":3,"frames_lost":0,"mpdus_delivered":12,"data_bits":38400,"control_bits_sent":144,"control_bits_correct":144,"data_airtime_us":3408,"hol_wait_slots":{"count":3,"sum":165,"min":5,"max":147,"buckets":[0,0,0,1,1,0,0,0,1]},"inter_tx_gap_slots":{"count":2,"sum":418,"min":138,"max":280,"buckets":[0,0,0,0,0,0,0,0,1,1]}},{"tx_rounds":2,"collisions":0,"frames_delivered":2,"frames_lost":0,"mpdus_delivered":8,"data_bits":25600,"control_bits_sent":96,"control_bits_correct":12,"data_airtime_us":2272,"hol_wait_slots":{"count":2,"sum":436,"min":155,"max":281,"buckets":[0,0,0,0,0,0,0,0,1,1]},"inter_tx_gap_slots":{"count":1,"sum":414,"min":414,"max":414,"buckets":[0,0,0,0,0,0,0,0,0,1]}}]})";

// Golden 3: 8 stations, duration 8e3, SNR 21.5 -> 9.25 dB, 32 control
// bits per frame, seed 11.
constexpr const char* kGolden8Sta =
    R"({"elapsed_us":8267,"contention_rounds":14,"tx_rounds":10,"collision_rounds":4,"airtime":{"data_us":3892,"ack_us":440,"control_us":0,"idle_us":915,"collision_us":3020},"stations":[{"tx_rounds":2,"collisions":0,"frames_delivered":2,"frames_lost":0,"mpdus_delivered":8,"data_bits":25600,"control_bits_sent":60,"control_bits_correct":60,"data_airtime_us":568,"hol_wait_slots":{"count":2,"sum":659,"min":226,"max":433,"buckets":[0,0,0,0,0,0,0,0,1,1]},"inter_tx_gap_slots":{"count":1,"sum":469,"min":469,"max":469,"buckets":[0,0,0,0,0,0,0,0,0,1]}},{"tx_rounds":5,"collisions":1,"frames_delivered":5,"frames_lost":0,"mpdus_delivered":20,"data_bits":64000,"control_bits_sent":148,"control_bits_correct":120,"data_airtime_us":1404,"hol_wait_slots":{"count":5,"sum":729,"min":4,"max":271,"buckets":[0,0,0,2,0,0,0,0,2,1]},"inter_tx_gap_slots":{"count":4,"sum":878,"min":40,"max":311,"buckets":[0,0,0,0,0,0,1,0,1,2]}},{"tx_rounds":0,"collisions":1,"frames_delivered":0,"frames_lost":0,"mpdus_delivered":0,"data_bits":0,"control_bits_sent":0,"control_bits_correct":0,"data_airtime_us":0,"hol_wait_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},"inter_tx_gap_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}},{"tx_rounds":1,"collisions":2,"frames_delivered":1,"frames_lost":0,"mpdus_delivered":4,"data_bits":12800,"control_bits_sent":32,"control_bits_correct":19,"data_airtime_us":392,"hol_wait_slots":{"count":1,"sum":356,"min":356,"max":356,"buckets":[0,0,0,0,0,0,0,0,0,1]},"inter_tx_gap_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}},{"tx_rounds":0,"collisions":1,"frames_delivered":0,"frames_lost":0,"mpdus_delivered":0,"data_bits":0,"control_bits_sent":0,"control_bits_correct":0,"data_airtime_us":0,"hol_wait_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},"inter_tx_gap_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}},{"tx_rounds":0,"collisions":1,"frames_delivered":0,"frames_lost":0,"mpdus_delivered":0,"data_bits":0,"control_bits_sent":0,"control_bits_correct":0,"data_airtime_us":0,"hol_wait_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},"inter_tx_gap_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}},{"tx_rounds":1,"collisions":1,"frames_delivered":1,"frames_lost":0,"mpdus_delivered":4,"data_bits":12800,"control_bits_sent":32,"control_bits_correct":32,"data_airtime_us":764,"hol_wait_slots":{"count":1,"sum":129,"min":129,"max":129,"buckets":[0,0,0,0,0,0,0,0,1]},"inter_tx_gap_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}},{"tx_rounds":1,"collisions":1,"frames_delivered":1,"frames_lost":0,"mpdus_delivered":4,"data_bits":12800,"control_bits_sent":32,"control_bits_correct":2,"data_airtime_us":764,"hol_wait_slots":{"count":1,"sum":740,"min":740,"max":740,"buckets":[0,0,0,0,0,0,0,0,0,0,1]},"inter_tx_gap_slots":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}}]})";

// NetResult JSON with the engine-only keys removed, for comparison
// against the pre-engine goldens above.
std::string legacy_view(const NetResult& r) {
  const runner::Json full = r.to_json();
  runner::Json out = runner::Json::object();
  for (const auto& [key, value] : full.as_object()) {
    if (key == "events" || key == "obss_overlap_us") continue;
    out.set(key, value);
  }
  return out.dump_compact();
}

Scenario golden_scenario_4sta() {
  Scenario sc;
  sc.duration_us = 8e3;
  return sc;
}

Scenario golden_scenario_2sta() {
  Scenario sc;
  sc.topology.bss[0].num_stations = 2;
  sc.duration_us = 6e3;
  sc.fixed_rate_mbps = 12;
  return sc;
}

Scenario golden_scenario_8sta() {
  Scenario sc;
  sc.topology.bss[0].num_stations = 8;
  sc.topology.bss[0].snr_db_near = 21.5;
  sc.topology.bss[0].snr_db_far = 9.25;
  sc.duration_us = 8e3;
  sc.control_bits_per_frame = 32;
  return sc;
}

Scenario two_ap_scenario(int ch0, int ch1, int stas_per_bss = 2) {
  Scenario sc;
  sc.topology.bss.clear();
  sc.topology.bss.push_back({.channel = ch0, .num_stations = stas_per_bss});
  sc.topology.bss.push_back({.channel = ch1, .num_stations = stas_per_bss});
  sc.duration_us = 8e3;
  return sc;
}

TEST(NetEngine, ReproducesLegacySlottedLoopByteForByte) {
  EXPECT_EQ(legacy_view(run_scenario(golden_scenario_4sta(), 7)),
            kGolden4Sta);
  EXPECT_EQ(legacy_view(run_scenario(golden_scenario_2sta(), 5)),
            kGolden2StaFixedRate);
  EXPECT_EQ(legacy_view(run_scenario(golden_scenario_8sta(), 11)),
            kGolden8Sta);
}

// 64-bit FNV-1a of a result's full JSON, in hex: pins a large NetResult
// in one constant.
std::string digest(const NetResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : r.to_json().dump_compact()) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Both scenarios below adapt the rate, so every airtime lookup at backoff
// expiry reads the station's channel, and fade 20x faster than walking
// speed, so a read that missed some of the medium time would often pick
// a different rate.
constexpr double kFastDopplerHz = 300.0;

// A 256-station saturated cell. (256 stations is the most the station
// seed families keep independent.)
Scenario dense_cell_256() {
  Scenario sc;
  sc.topology.bss[0].num_stations = 256;
  sc.profile.doppler_hz = kFastDopplerHz;
  sc.duration_us = 40e3;
  return sc;
}

// Two co-channel cells under Poisson load. Cell 0's near (30 dB) and far
// (8 dB) stations cannot hear each other, so the slow far station's
// blind fires outlive the fast near station's exchanges and extend the
// round; between arrivals the cells fall dormant. Every kind of medium
// time the engine logs for a cell's members occurs.
Scenario hidden_poisson_two_bss() {
  Scenario sc;
  sc.profile.doppler_hz = kFastDopplerHz;
  sc.topology.bss.clear();
  sc.topology.bss.push_back({.channel = 36, .num_stations = 4,
                             .snr_db_near = 30.0, .snr_db_far = 8.0});
  sc.topology.bss.push_back({.channel = 36, .num_stations = 3});
  const int n = 7;
  sc.topology.carrier_sense.assign(n * n, 1);
  sc.topology.carrier_sense[0 * n + 3] = 0;
  sc.topology.carrier_sense[3 * n + 0] = 0;
  sc.traffic.kind = TrafficModel::Kind::kPoisson;
  sc.traffic.arrival_rate_fps = 300.0;
  sc.duration_us = 60e3;
  return sc;
}

// Fading is advanced lazily (net/engine.h): a station replays its cell's
// logged steps only when its channel is read. These digests were
// captured from the engine that still advanced every member's channel
// eagerly at each step; any change to a channel's advance() sequence
// moves them.
TEST(NetEngine, LazyFadingMatchesEagerGoldenDenseCell) {
  EXPECT_EQ(digest(run_scenario(dense_cell_256(), 21)), "2fecabd5b5d91bdb");
}

TEST(NetEngine, LazyFadingMatchesEagerGoldenHiddenPoissonTwoBss) {
  const Scenario sc = hidden_poisson_two_bss();
  EXPECT_EQ(digest(run_scenario(sc, 13)), "10a1fa60f7151944");
#if SILENCE_OBS_ON
  obs::Registry::global().reset();
  (void)run_scenario(sc, 13);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto* fires = snap.counter("net.hidden_fires");
  ASSERT_NE(fires, nullptr);
  EXPECT_GT(fires->value, 0u);
  const auto* steps = snap.counter("net.fading_steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_GT(steps->value, 0u);
  obs::Registry::global().reset();
#endif
}

TEST(NetEngine, StepUntilReachesTheSameResultAsRun) {
  const Scenario sc = golden_scenario_4sta();
  NetSim stepped(sc, 7);
  // Drive the run in small increments, interrogating mid-run state the
  // way a rate controller would.
  double t = 0.0;
  std::uint64_t last_events = 0;
  while (!stepped.done()) {
    t += 500.0;
    stepped.step_until(t);
    EXPECT_GE(stepped.events_processed(), last_events);
    last_events = stepped.events_processed();
    EXPECT_LE(stepped.now_us(), t);
    ASSERT_LT(t, 1e6) << "engine failed to finish";
  }
  NetSim oneshot(sc, 7);
  oneshot.run();
  EXPECT_EQ(stepped.result().to_json().dump_compact(),
            oneshot.result().to_json().dump_compact());
  EXPECT_EQ(legacy_view(stepped.result()), kGolden4Sta);
}

TEST(NetEngine, ExposesMidRunStateAndRejectsMisuse) {
  const Scenario sc = golden_scenario_4sta();
  NetSim sim;
  EXPECT_THROW(sim.run(), std::logic_error);
  EXPECT_THROW(sim.step_until(1.0), std::logic_error);
  EXPECT_THROW((void)sim.result(), std::logic_error);
  sim.init(sc, 7);
  EXPECT_THROW(sim.init(sc, 7), std::logic_error);
  EXPECT_EQ(sim.num_stations(), 4);
  EXPECT_EQ(sim.num_bss(), 1);
  sim.step_until(4000.0);
  EXPECT_FALSE(sim.done());
  EXPECT_GT(sim.events_processed(), 0u);
  EXPECT_GT(sim.now_us(), 0.0);
  std::size_t tx = 0;
  for (int i = 0; i < sim.num_stations(); ++i) {
    tx += sim.station_stats(i).tx_rounds;
  }
  EXPECT_GT(tx, 0u);  // mid-run stats are live
  // result() completes the run and is idempotent.
  const std::string once = sim.result().to_json().dump_compact();
  EXPECT_TRUE(sim.done());
  EXPECT_EQ(sim.result().to_json().dump_compact(), once);
}

TEST(NetEngine, CoChannelTwoApScenarioSeesObssInterference) {
  const NetResult r = run_scenario(two_ap_scenario(36, 36), 17);
  ASSERT_EQ(r.stations.size(), 4u);
  // Both cells ran a full schedule...
  EXPECT_GT(r.tx_rounds, 0u);
  EXPECT_GT(r.events, 0u);
  // ...and their PPDUs overlapped: nonzero cross-AP interference.
  EXPECT_GT(r.obss_overlap_us, 0.0);
}

TEST(NetEngine, DistantChannelsIsolateTheCells) {
  // Channels 36 and 44 are more than one apart: zero overlap weight.
  const NetResult r = run_scenario(two_ap_scenario(36, 44), 17);
  EXPECT_EQ(r.obss_overlap_us, 0.0);
  // With no coupling, BSS 0's stations must be byte-identical to the
  // same stations in a standalone single-BSS scenario: per-station RNG
  // substreams make cells independent unless physics couples them.
  Scenario solo;
  solo.topology.bss[0].num_stations = 2;
  solo.duration_us = 8e3;
  const NetResult alone = run_scenario(solo, 17);
  const runner::Json two_ap = r.to_json();
  const runner::Json one_ap = alone.to_json();
  const auto& two_stations = two_ap.find("stations")->as_array();
  const auto& one_stations = one_ap.find("stations")->as_array();
  ASSERT_EQ(two_stations.size(), 4u);
  ASSERT_EQ(one_stations.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(two_stations[i].dump_compact(), one_stations[i].dump_compact())
        << "station " << i;
  }
  // The co-channel run, by contrast, must differ from isolation.
  const NetResult coupled = run_scenario(two_ap_scenario(36, 36), 17);
  EXPECT_NE(coupled.to_json().dump_compact(), r.to_json().dump_compact());
}

// Regression for an OBSS undercount: intervals used to be read out of
// the registry only at the victim's TxEnd, but pruned at every backoff
// expiry, so a fast cell completing whole rounds (PPDU+SIFS+ACK+DIFS+
// backoff) inside a slow cell's long PPDU had its intervals erased
// before the slow victim looked — one direction of the overlap went
// missing. Overlap is now credited to the in-flight exchange as each
// interval registers, so both directions are always counted. 5 dB vs
// 30 dB cells make the rate asymmetry routine (≈6 Mb/s PPDUs several
// ms long vs ≈54 Mb/s rounds under 1 ms): at seed 7 the TxEnd-read
// accounting measured 8774 µs of overlap, the registration-time
// accounting 11594 µs — the threshold sits between.
TEST(NetEngine, FastCellRoundsInsideSlowPpduAreFullyCounted) {
  Scenario sc;
  sc.topology.bss.clear();
  sc.topology.bss.push_back({.channel = 36, .num_stations = 1,
                             .snr_db_near = 5.0, .snr_db_far = 5.0});
  sc.topology.bss.push_back({.channel = 36, .num_stations = 1,
                             .snr_db_near = 30.0, .snr_db_far = 30.0});
  sc.mpdu_octets = 1200;
  sc.duration_us = 30e3;
  const NetResult r = run_scenario(sc, 7);
  EXPECT_GT(r.obss_overlap_us, 10e3);
  // With one station per cell every interval is a winner PPDU with a
  // reader on each side, so the tally cannot exceed twice the smaller
  // cell's on-air time (it is bounded by 2 × min busy span).
  EXPECT_LT(r.obss_overlap_us, 2.0 * r.elapsed_us);
}

// Hidden blind fires radiate into neighboring cells like any other
// PPDU: the stray burst's interval registers alongside the winner's, so
// a co-channel neighbor's concurrent exchange is charged with its
// overlap too. The pinned tally discriminates the accounting at seed 7:
// 3487 µs with blind fires registered, 5284 µs with them invisible to
// neighbors (the schedules diverge once the extra interference lands),
// and 4243 µs under the old TxEnd-read accounting. All contributions
// are integer-µs sums, so the double compares exactly.
TEST(NetEngine, BlindFiresRadiateIntoNeighborCells) {
  Scenario sc;
  sc.topology.bss.clear();
  sc.topology.bss.push_back({.channel = 36, .num_stations = 2});
  sc.topology.bss.push_back({.channel = 36, .num_stations = 1});
  const int n = 3;
  sc.topology.carrier_sense.assign(n * n, 1);
  sc.topology.carrier_sense[0 * n + 1] = 0;
  sc.topology.carrier_sense[1 * n + 0] = 0;
  sc.duration_us = 20e3;
  const NetResult r = run_scenario(sc, 7);
  EXPECT_DOUBLE_EQ(r.obss_overlap_us, 3487.0);
#if SILENCE_OBS_ON
  // Prove the pinned run actually blind-fired (the mechanism under
  // test), not just scheduled around the hidden pair.
  obs::Registry::global().reset();
  (void)run_scenario(sc, 7);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto* fires = snap.counter("net.hidden_fires");
  ASSERT_NE(fires, nullptr);
  EXPECT_GT(fires->value, 0u);
  obs::Registry::global().reset();
#endif
}

TEST(NetEngine, AdjacentChannelLeakCouplesAtReducedWeight) {
  const NetResult r = run_scenario(two_ap_scenario(36, 37), 17);
  EXPECT_GT(r.obss_overlap_us, 0.0);
  // Setting the leak to zero decouples adjacent channels entirely.
  Scenario sealed = two_ap_scenario(36, 37);
  sealed.topology.adjacent_leak = 0.0;
  EXPECT_EQ(run_scenario(sealed, 17).obss_overlap_us, 0.0);
}

TEST(NetEngine, HiddenTerminalsBlindFireIntoTheWinner) {
  // 4 stations; 0 and 1 cannot hear each other (symmetric), everyone
  // else senses normally.
  Scenario sc = golden_scenario_4sta();
  const int n = 4;
  sc.topology.carrier_sense.assign(n * n, 1);
  sc.topology.carrier_sense[0 * n + 1] = 0;
  sc.topology.carrier_sense[1 * n + 0] = 0;
  const NetResult hidden = run_scenario(sc, 7);
  const NetResult sensing = run_scenario(golden_scenario_4sta(), 7);
  // The geometry must change the outcome...
  EXPECT_NE(hidden.to_json().dump_compact(),
            sensing.to_json().dump_compact());
  // ...while the scheduler invariants keep holding.
  EXPECT_EQ(hidden.tx_rounds + hidden.collision_rounds,
            hidden.contention_rounds);
  std::size_t sta_tx = 0, sta_collisions = 0;
  for (const StaStats& s : hidden.stations) {
    sta_tx += s.tx_rounds;
    sta_collisions += s.collisions;
  }
  EXPECT_EQ(sta_tx, hidden.tx_rounds);
  EXPECT_GE(sta_collisions, 2 * hidden.collision_rounds);
#if SILENCE_OBS_ON
  // The registry's hidden-fire counter confirms the mechanism actually
  // triggered (not just a different-but-fire-free schedule).
  obs::Registry::global().reset();
  (void)run_scenario(sc, 7);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto* fires = snap.counter("net.hidden_fires");
  ASSERT_NE(fires, nullptr);
  EXPECT_GT(fires->value, 0u);
  obs::Registry::global().reset();
#endif
}

TEST(NetEngine, PoissonTrafficIdlesTheMediumAndStaysDeterministic) {
  Scenario sc = golden_scenario_4sta();
  sc.traffic.kind = TrafficModel::Kind::kPoisson;
  sc.traffic.arrival_rate_fps = 200.0;  // ~1.6 frames per station
  const NetResult open = run_scenario(sc, 7);
  const NetResult again = run_scenario(sc, 7);
  EXPECT_EQ(open.to_json().dump_compact(), again.to_json().dump_compact());
  const NetResult saturated = run_scenario(golden_scenario_4sta(), 7);
  EXPECT_LT(open.tx_rounds, saturated.tx_rounds);
  EXPECT_GT(open.airtime.idle_us / open.elapsed_us,
            saturated.airtime.idle_us / saturated.elapsed_us);
  // Every winning TX still records one head-of-line wait.
  for (const StaStats& s : open.stations) {
    EXPECT_EQ(s.hol_wait_slots.count, s.tx_rounds);
  }
}

TEST(NetEngine, NearZeroArrivalRateSleepsTheWholeRun) {
  Scenario sc = golden_scenario_4sta();
  sc.traffic.kind = TrafficModel::Kind::kPoisson;
  sc.traffic.arrival_rate_fps = 1e-6;  // one frame every ~1e6 seconds
  const NetResult r = run_scenario(sc, 7);
  EXPECT_EQ(r.tx_rounds, 0u);
  EXPECT_EQ(r.contention_rounds, 0u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, sc.duration_us);
  EXPECT_DOUBLE_EQ(r.airtime.idle_us, sc.duration_us);
}

// Open-loop scenarios whose arrivals run dry drain the calendar queue
// with every BSS dormant; step_until() must still converge once the
// caller's clock reaches the scenario horizon, or the documented rate-
// controller pattern `while (!sim.done()) sim.step_until(t)` would spin
// forever (only run()/result() used to finish dormant cells off).
TEST(NetEngine, StepUntilConvergesWhenOpenLoopTrafficRunsDry) {
  Scenario sc = golden_scenario_4sta();
  sc.traffic.kind = TrafficModel::Kind::kPoisson;
  sc.traffic.arrival_rate_fps = 200.0;  // a handful of frames, then dry
  NetSim sim(sc, 7);
  double t = 0.0;
  while (!sim.done()) {
    t += 500.0;
    sim.step_until(t);
    ASSERT_LT(t, 1e6) << "step_until never converged a dormant run";
  }
  EXPECT_GE(t, sc.duration_us);
  EXPECT_EQ(sim.result().to_json().dump_compact(),
            run_scenario(sc, 7).to_json().dump_compact());
}

TEST(NetEngine, OnOffTrafficRunsAndHoldsInvariants) {
  Scenario sc = golden_scenario_4sta();
  sc.traffic.kind = TrafficModel::Kind::kOnOff;
  sc.traffic.arrival_rate_fps = 2000.0;
  sc.traffic.mean_on_us = 2000.0;
  sc.traffic.mean_off_us = 2000.0;
  const NetResult r = run_scenario(sc, 7);
  EXPECT_EQ(r.to_json().dump_compact(),
            run_scenario(sc, 7).to_json().dump_compact());
  EXPECT_EQ(r.tx_rounds + r.collision_rounds, r.contention_rounds);
  EXPECT_NEAR(r.airtime.total_us(), r.elapsed_us, 1e-6 * r.elapsed_us);
  EXPECT_GT(r.events, 0u);
}

TEST(NetEngine, EventAndObssTalliesMerge) {
  const Scenario sc = two_ap_scenario(36, 36);
  const NetResult a = run_scenario(sc, 3);
  const NetResult b = run_scenario(sc, 4);
  NetResult merged;
  merged += a;
  merged += b;
  EXPECT_EQ(merged.events, a.events + b.events);
  EXPECT_DOUBLE_EQ(merged.obss_overlap_us,
                   a.obss_overlap_us + b.obss_overlap_us);
}

// The headline determinism acceptance: a 64-station / 2-AP co-channel
// scenario swept at 1, 2 and 8 threads reduces byte-identically.
TEST(NetEngine, TwoApSixtyFourStationSweepIsBitIdenticalAcrossThreads) {
  Scenario sc = two_ap_scenario(36, 36, 32);
  sc.duration_us = 2e3;
  runner::SweepGrid<int> grid;
  grid.points = {64};
  grid.trials = 2;
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

TEST(NetTopology, JsonRoundTripsAndValidates) {
  Topology topo;
  topo.bss.clear();
  topo.bss.push_back({.channel = 36, .num_stations = 2,
                      .snr_db_near = 20.0, .snr_db_far = 10.0});
  topo.bss.push_back({.channel = 40, .num_stations = 3});
  topo.carrier_sense.assign(25, 1);
  topo.carrier_sense[3] = 0;
  topo.obss_pulse_power = 2.0;
  topo.adjacent_leak = 0.125;
  const Topology back = Topology::from_json(topo.to_json());
  EXPECT_EQ(back, topo);
  EXPECT_EQ(back.to_json().dump_compact(), topo.to_json().dump_compact());
  topo.validate();  // consistent: must not throw

  Topology bad = topo;
  bad.carrier_sense.resize(7);  // not N*N
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = topo;
  bad.bss.clear();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = topo;
  bad.bss[0].num_stations = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = topo;
  bad.adjacent_leak = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(NetTopology, StationIndexingAndSnrPlacement) {
  Topology topo;
  topo.bss.clear();
  topo.bss.push_back({.channel = 36, .num_stations = 2,
                      .snr_db_near = 24.0, .snr_db_far = 12.0});
  topo.bss.push_back({.channel = 40, .num_stations = 3,
                      .snr_db_near = 18.0, .snr_db_far = 18.0});
  ASSERT_EQ(topo.total_stations(), 5);
  EXPECT_EQ(topo.station_bss(0), 0);
  EXPECT_EQ(topo.station_bss(1), 0);
  EXPECT_EQ(topo.station_bss(2), 1);
  EXPECT_EQ(topo.station_bss(4), 1);
  EXPECT_EQ(topo.first_station(0), 0);
  EXPECT_EQ(topo.first_station(1), 2);
  // Within-BSS interpolation: first station near, last far.
  EXPECT_DOUBLE_EQ(topo.station_snr_db(0), 24.0);
  EXPECT_DOUBLE_EQ(topo.station_snr_db(1), 12.0);
  EXPECT_DOUBLE_EQ(topo.station_snr_db(2), 18.0);
  EXPECT_DOUBLE_EQ(topo.station_snr_db(4), 18.0);
  // Empty carrier-sense matrix: everyone hears everyone.
  EXPECT_TRUE(topo.hears(0, 4));
  EXPECT_DOUBLE_EQ(topo.channel_weight(36, 36), 1.0);
  EXPECT_DOUBLE_EQ(topo.channel_weight(36, 37), topo.adjacent_leak);
  EXPECT_DOUBLE_EQ(topo.channel_weight(36, 40), 0.0);
}

TEST(NetTraffic, ModelRoundTripsAndValidates) {
  for (const TrafficModel::Kind kind :
       {TrafficModel::Kind::kSaturated, TrafficModel::Kind::kPoisson,
        TrafficModel::Kind::kOnOff}) {
    TrafficModel tm;
    tm.kind = kind;
    tm.arrival_rate_fps = 1234.5;
    tm.mean_on_us = 111.0;
    tm.mean_off_us = 222.0;
    const TrafficModel back = TrafficModel::from_json(tm.to_json());
    EXPECT_EQ(back, tm);
    tm.validate();
  }
  TrafficModel bad;
  bad.kind = TrafficModel::Kind::kPoisson;
  bad.arrival_rate_fps = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.kind = TrafficModel::Kind::kOnOff;
  bad.arrival_rate_fps = 100.0;
  bad.mean_on_us = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  runner::Json doc = TrafficModel{}.to_json();
  doc.set("kind", "warp-drive");
  EXPECT_THROW(TrafficModel::from_json(doc), std::runtime_error);
}

}  // namespace
}  // namespace silence::net

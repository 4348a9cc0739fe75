// Contention behaviour of the one DCF, on the plain-DCF cell the
// coordination baseline runs: one saturated BSS, every station at the
// same SNR, one MPDU per frame and no CoS control bits. Every frame goes
// through the PHY.
#include "net/scenario.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace silence::net {
namespace {

Scenario plain_dcf(int stations) {
  Scenario sc;
  Topology::Bss& cell = sc.topology.bss.front();
  cell.num_stations = stations;
  cell.snr_db_near = 20.0;
  cell.snr_db_far = 20.0;
  sc.mpdu_octets = 512;
  sc.max_mpdus_per_frame = 1;
  sc.control_bits_per_frame = 0;
  sc.duration_us = 50e3;
  return sc;
}

TEST(Contention, SingleStationNeverCollides) {
  const NetResult r = run_scenario(plain_dcf(1), 1);
  ASSERT_EQ(r.stations.size(), 1u);
  EXPECT_EQ(r.collision_rounds, 0u);
  EXPECT_EQ(r.stations[0].collisions, 0u);
  EXPECT_EQ(r.airtime.collision_us, 0.0);
  EXPECT_GT(r.tx_rounds, 0u);
  EXPECT_EQ(r.tx_rounds, r.contention_rounds);
}

TEST(Contention, CollisionsGrowWithStations) {
  const NetResult few = run_scenario(plain_dcf(2), 1);
  const NetResult many = run_scenario(plain_dcf(20), 1);
  EXPECT_GT(many.collision_rate(), few.collision_rate());
}

TEST(Contention, ThroughputDegradesUnderHeavyContention) {
  const NetResult light = run_scenario(plain_dcf(2), 1);
  const NetResult heavy = run_scenario(plain_dcf(30), 1);
  EXPECT_GT(light.aggregate_throughput_mbps(),
            heavy.aggregate_throughput_mbps());
}

TEST(Contention, AirtimeAccountingAddsUp) {
  const NetResult r = run_scenario(plain_dcf(5), 1);
  EXPECT_NEAR(r.airtime.total_us(), r.elapsed_us, r.elapsed_us * 1e-9);
  EXPECT_EQ(r.airtime.control_us, 0.0);  // plain DCF has no polls
}

TEST(Contention, PhyPathDeliversAtGoodSnr) {
  Scenario sc = plain_dcf(3);
  sc.duration_us = 30e3;
  const NetResult r = run_scenario(sc, 1);
  std::size_t delivered = 0;
  std::size_t lost = 0;
  for (const StaStats& s : r.stations) {
    delivered += s.frames_delivered;
    lost += s.frames_lost;
  }
  EXPECT_GT(delivered, 0u);
  // At 20 dB the PHY loses almost nothing.
  EXPECT_LE(lost, delivered / 10 + 1);
}

TEST(Contention, DeterministicForSeed) {
  const NetResult a = run_scenario(plain_dcf(5), 1);
  const NetResult b = run_scenario(plain_dcf(5), 1);
  EXPECT_EQ(a.tx_rounds, b.tx_rounds);
  EXPECT_EQ(a.collision_rounds, b.collision_rounds);
  EXPECT_DOUBLE_EQ(a.elapsed_us, b.elapsed_us);
  ASSERT_EQ(a.stations.size(), b.stations.size());
  for (std::size_t i = 0; i < a.stations.size(); ++i) {
    EXPECT_EQ(a.stations[i].data_bits, b.stations[i].data_bits);
  }
}

TEST(Contention, RejectsZeroStations) {
  EXPECT_THROW(run_scenario(plain_dcf(0), 1), std::invalid_argument);
}

}  // namespace
}  // namespace silence::net

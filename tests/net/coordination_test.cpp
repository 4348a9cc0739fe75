#include "net/coordination.h"

#include <gtest/gtest.h>

#include <set>

namespace silence {
namespace {

CoordinationConfig quick(CoordinationMode mode) {
  CoordinationConfig config;
  config.mode = mode;
  config.num_stations = 4;
  config.duration_us = 60e3;
  config.measured_snr_db = 18.0;
  return config;
}

TEST(Coordination, CosGrantsEliminateControlAirtime) {
  const CoordinationResult poll =
      run_coordination(quick(CoordinationMode::kExplicitPoll));
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  EXPECT_GT(poll.airtime.control_us, 0.0);
  EXPECT_EQ(cos.airtime.control_us, 0.0);
  EXPECT_GT(poll.control_overhead(), 0.0);
  EXPECT_EQ(cos.control_overhead(), 0.0);
}

TEST(Coordination, CosThroughputAtLeastMatchesPolling) {
  const CoordinationResult poll =
      run_coordination(quick(CoordinationMode::kExplicitPoll));
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  // CoS spends no airtime on grants; unless too many grants are lost,
  // total throughput must be at least polling's.
  EXPECT_GE(cos.total_throughput_mbps(), poll.total_throughput_mbps() * 0.97);
}

TEST(Coordination, CoordinatedModesBeatContention) {
  const CoordinationResult dcf =
      run_coordination(quick(CoordinationMode::kDcfContention));
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  EXPECT_GT(cos.total_throughput_mbps(), dcf.total_throughput_mbps() * 0.9);
}

TEST(Coordination, GrantAccounting) {
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  EXPECT_GT(cos.grants_issued, 0u);
  EXPECT_LE(cos.grants_lost, cos.grants_issued);
  // Most grants arrive (per-message accuracy of short CoS messages).
  EXPECT_LE(cos.grants_lost * 4, cos.grants_issued);
}

TEST(Coordination, UplinkFlowsOnlyThroughGrants) {
  CoordinationConfig config = quick(CoordinationMode::kCosGrant);
  const CoordinationResult result = run_coordination(config);
  const std::size_t delivered_grants =
      result.grants_issued - result.grants_lost;
  // Uplink bits cannot exceed one uplink frame per delivered grant.
  EXPECT_LE(result.uplink_bits,
            delivered_grants * 8 * config.frame_octets);
}

TEST(Coordination, RejectsBadConfig) {
  CoordinationConfig config = quick(CoordinationMode::kCosGrant);
  config.num_stations = 0;
  EXPECT_THROW(run_coordination(config), std::invalid_argument);
  // A grant names its station in 4 bits: station 16 would read as 0.
  config.num_stations = 17;
  EXPECT_THROW(run_coordination(config), std::invalid_argument);
}

// Every link of a full-size run draws its own stream: no station's
// channel seed may double as another link's noise seed.
TEST(Coordination, LinkSeedsAreDistinct) {
  for (const std::uint64_t seed : {1ull, 2ull, 7ull}) {
    std::set<std::uint64_t> seeds;
    for (int i = 0; i < kMaxCoordinatedStations; ++i) {
      for (const std::uint64_t s : coordination_link_seeds(seed, i)) {
        seeds.insert(s);
      }
    }
    EXPECT_EQ(seeds.size(), 4u * kMaxCoordinatedStations) << "seed " << seed;
  }
}

}  // namespace
}  // namespace silence

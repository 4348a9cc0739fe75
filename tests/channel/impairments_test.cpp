#include "channel/impairments.h"

#include <cmath>
#include <gtest/gtest.h>
#include <numbers>

#include "channel/fading.h"
#include "common/crc32.h"
#include "phy/params.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/sync.h"
#include "phy/transmitter.h"

namespace silence {
namespace {

TEST(Impairments, NoImpairmentIsIdentity) {
  RadioImpairments radio({}, 1);
  Rng rng(2);
  CxVec samples(100);
  for (auto& x : samples) x = rng.complex_gaussian(1.0);
  const CxVec out = radio.apply(samples);
  for (std::size_t n = 0; n < samples.size(); ++n) {
    EXPECT_EQ(out[n], samples[n]);
  }
}

TEST(Impairments, NegativeValuesRejected) {
  ImpairmentProfile bad;
  bad.tx_evm_floor = -0.1;
  EXPECT_THROW(RadioImpairments(bad, 1), std::invalid_argument);
}

TEST(Impairments, CfoRotatesProgressively) {
  ImpairmentProfile profile;
  profile.cfo_hz = 10e3;
  RadioImpairments radio(profile, 1);
  const CxVec ones(200, Cx{1.0, 0.0});
  const CxVec out = radio.apply(ones);
  // Sample n is rotated by 2*pi*f*(n+1)/fs.
  for (int n = 0; n < 200; n += 37) {
    const double expected =
        2.0 * std::numbers::pi * 10e3 * (n + 1) / kSampleRateHz;
    const double measured = std::arg(out[static_cast<std::size_t>(n)]);
    const double diff = std::remainder(measured - expected,
                                       2.0 * std::numbers::pi);
    EXPECT_NEAR(diff, 0.0, 1e-9) << "sample " << n;
  }
}

TEST(Impairments, OscillatorPhaseContinuesAcrossBursts) {
  ImpairmentProfile profile;
  profile.cfo_hz = 5e3;
  RadioImpairments radio(profile, 1);
  const CxVec ones(80, Cx{1.0, 0.0});
  const CxVec first = radio.apply(ones);
  const CxVec second = radio.apply(ones);
  // The second burst starts where the first left off.
  const double step = 2.0 * std::numbers::pi * 5e3 / kSampleRateHz;
  const double expected_gap = step * 80;
  const double measured_gap =
      std::remainder(std::arg(second[0]) - std::arg(first[0]),
                     2.0 * std::numbers::pi);
  EXPECT_NEAR(std::remainder(measured_gap - expected_gap,
                             2.0 * std::numbers::pi),
              0.0, 1e-9);
}

TEST(Impairments, TxEvmFloorCalibrated) {
  ImpairmentProfile profile;
  profile.tx_evm_floor = 0.05;
  RadioImpairments radio(profile, 3);
  const CxVec ones(50000, Cx{1.0, 0.0});
  const CxVec out = radio.apply(ones);
  double error_power = 0.0;
  for (std::size_t n = 0; n < out.size(); ++n) {
    error_power += std::norm(out[n] - ones[n]);
  }
  error_power /= static_cast<double>(out.size());
  EXPECT_NEAR(error_power, 0.05 * 0.05, 0.05 * 0.05 * 0.1);
}

// The EVM-floor fill draws exactly what the per-sample loop it replaced
// drew, and leaves the RNG where that loop did for the phase-noise walk.
TEST(Impairments, BulkEvmFloorMatchesPerSampleLoop) {
  ImpairmentProfile profile;
  profile.tx_evm_floor = 0.03;
  profile.phase_noise_std = 0.002;
  profile.cfo_hz = 2e3;
  RadioImpairments radio(profile, 12);
  Rng oracle(12);
  double phase = 0.0;
  for (const std::size_t size : {321u, 80u, 1u}) {
    CxVec burst(size);
    for (std::size_t n = 0; n < size; ++n) {
      burst[n] = Cx{std::cos(0.1 * n), std::sin(0.3 * n)};
    }
    const CxVec out = radio.apply(burst);
    CxVec expected = burst;
    double mean_power = 0.0;
    for (const Cx& x : expected) mean_power += std::norm(x);
    mean_power /= static_cast<double>(expected.size());
    const double error_var =
        profile.tx_evm_floor * profile.tx_evm_floor * mean_power;
    for (Cx& x : expected) x += oracle.complex_gaussian(error_var);
    const double cfo_step =
        2.0 * std::numbers::pi * profile.cfo_hz / kSampleRateHz;
    for (Cx& x : expected) {
      phase += cfo_step;
      phase += profile.phase_noise_std * oracle.gaussian();
      x *= Cx{std::cos(phase), std::sin(phase)};
    }
    phase = std::fmod(phase, 2.0 * std::numbers::pi);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t n = 0; n < size; ++n) {
      ASSERT_EQ(out[n], expected[n]) << "size " << size << " n " << n;
    }
  }
}

TEST(Impairments, PhaseNoiseDiffuses) {
  ImpairmentProfile profile;
  profile.phase_noise_std = 0.01;
  RadioImpairments radio(profile, 4);
  const CxVec ones(10000, Cx{1.0, 0.0});
  const CxVec out = radio.apply(ones);
  // Wiener process: phase variance at sample n is n * std^2.
  const double late_phase = std::abs(std::arg(out[9999]));
  EXPECT_GT(late_phase, 0.0);
  // Magnitude untouched by a pure phase impairment.
  for (int n = 0; n < 10000; n += 997) {
    EXPECT_NEAR(std::abs(out[static_cast<std::size_t>(n)]), 1.0, 1e-12);
  }
}

TEST(Sync, CfoEstimateFromCleanPreamble) {
  for (double cfo : {-80e3, -12e3, 0.0, 3e3, 50e3, 120e3}) {
    ImpairmentProfile profile;
    profile.cfo_hz = cfo;
    RadioImpairments radio(profile, 5);
    const CxVec preamble = build_preamble();
    CxVec impaired = radio.apply(preamble);

    const double coarse =
        estimate_cfo_coarse(std::span(impaired).first(kStfSamples));
    correct_cfo(impaired, coarse);
    const double fine = estimate_cfo_fine(
        std::span(impaired).subspan(kStfSamples, kLtfSamples));
    EXPECT_NEAR(coarse + fine, cfo, 50.0) << "cfo " << cfo;
  }
}

TEST(Sync, CfoEstimateUnderNoise) {
  Rng rng(6);
  const double cfo = 30e3;
  ImpairmentProfile profile;
  profile.cfo_hz = cfo;
  RadioImpairments radio(profile, 7);
  const CxVec preamble = build_preamble();
  CxVec impaired = radio.apply(preamble);
  const double nv = noise_var_for_snr_db(15.0);
  for (auto& x : impaired) x += rng.complex_gaussian(nv);

  const double coarse =
      estimate_cfo_coarse(std::span(impaired).first(kStfSamples));
  correct_cfo(impaired, coarse);
  const double fine = estimate_cfo_fine(
      std::span(impaired).subspan(kStfSamples, kLtfSamples));
  EXPECT_NEAR(coarse + fine, cfo, 2e3);
}

TEST(Sync, CorrectCfoInvertsImpairment) {
  ImpairmentProfile profile;
  profile.cfo_hz = 44e3;
  RadioImpairments radio(profile, 8);
  Rng rng(9);
  CxVec samples(500);
  for (auto& x : samples) x = rng.complex_gaussian(1.0);
  CxVec impaired = radio.apply(samples);
  correct_cfo(impaired, 44e3);
  // A constant residual phase remains (the rotation of sample 0); check
  // sample-to-sample consistency instead of absolute equality.
  const Cx ratio0 = impaired[0] / samples[0];
  for (std::size_t n = 1; n < samples.size(); ++n) {
    EXPECT_NEAR(std::abs(impaired[n] / samples[n] - ratio0), 0.0, 1e-9);
  }
}

TEST(Sync, InputValidation) {
  const CxVec tiny(10);
  EXPECT_THROW(estimate_cfo_coarse(tiny), std::invalid_argument);
  EXPECT_THROW(estimate_cfo_fine(tiny), std::invalid_argument);
}

TEST(Impairments, PacketSurvivesRealisticImpairments) {
  // End-to-end: CFO + phase noise + TX EVM floor, corrected by the
  // receiver's preamble sync and pilot CPE tracking.
  Rng rng(10);
  Bytes psdu = rng.bytes(1020);
  append_fcs(psdu);
  const Mcs& mcs = mcs_for_rate(24);
  const CxVec tx = frame_to_samples(build_frame(psdu, mcs));

  ImpairmentProfile profile;
  profile.cfo_hz = 25e3;            // ~4 ppm residual at 5.8 GHz
  profile.phase_noise_std = 2e-3;   // mild oscillator jitter
  profile.tx_evm_floor = 0.03;      // -30 dB TX EVM
  RadioImpairments radio(profile, 11);
  CxVec impaired = radio.apply(tx);
  const double nv = noise_var_for_snr_db(20.0);
  for (auto& x : impaired) x += rng.complex_gaussian(nv);

  const RxPacket packet = receive_packet(impaired);
  ASSERT_TRUE(packet.ok);
  EXPECT_EQ(packet.psdu, psdu);
}

TEST(Impairments, UncorrectedCfoWouldDestroyThePacket) {
  // Sanity: the CFO above is fatal without the receiver's correction.
  // Bypass sync by applying the CFO *after* building a shifted receiver
  // input: feed the receiver a burst whose preamble was replaced by a
  // clean one (so sync estimates ~0) while the data field keeps the
  // rotation.
  Rng rng(12);
  Bytes psdu = rng.bytes(500);
  append_fcs(psdu);
  const Mcs& mcs = mcs_for_rate(36);
  const CxVec clean = frame_to_samples(build_frame(psdu, mcs));

  ImpairmentProfile profile;
  profile.cfo_hz = 60e3;  // ~20% of the subcarrier spacing: heavy ICI
  RadioImpairments radio(profile, 13);
  CxVec impaired = radio.apply(clean);
  std::copy(clean.begin(), clean.begin() + kPreambleSamples,
            impaired.begin());

  const RxPacket packet = receive_packet(impaired);
  EXPECT_FALSE(packet.ok);
}

}  // namespace
}  // namespace silence

// Receiver-internal behaviours not covered by the loopback tests:
// common-phase-error tracking, trailer symbol extraction, equalization
// edge cases, and the noise estimator under impairments.
#include <bit>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <numbers>

#include "channel/fading.h"
#include "channel/impairments.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/sync.h"
#include "phy/transmitter.h"

namespace silence {
namespace {

Bytes make_psdu(Rng& rng, std::size_t total) {
  Bytes psdu = rng.bytes(total - 4);
  append_fcs(psdu);
  return psdu;
}

TEST(ReceiverInternals, CpeTrackingAbsorbsConstantRotationPerSymbol) {
  // Rotate every data symbol by a fixed phase (as residual CFO would,
  // after the per-packet channel estimate): the pilots must absorb it.
  Rng rng(1);
  const Bytes psdu = make_psdu(rng, 400);
  const Mcs& mcs = mcs_for_rate(54);  // 64QAM: most phase-sensitive
  const TxFrame frame = build_frame(psdu, mcs);
  CxVec samples = frame_to_samples(frame);

  // Apply a 10-degree rotation to everything after the preamble+SIGNAL.
  const double angle = 10.0 * std::numbers::pi / 180.0;
  const Cx rot{std::cos(angle), std::sin(angle)};
  for (std::size_t n = static_cast<std::size_t>(kPreambleSamples) +
                       kSymbolSamples;
       n < samples.size(); ++n) {
    samples[n] *= rot;
  }

  const RxPacket packet = receive_packet(samples);
  ASSERT_TRUE(packet.ok);
  EXPECT_EQ(packet.psdu, psdu);
}

TEST(ReceiverInternals, TrailerSymbolsExtracted) {
  Rng rng(2);
  const Bytes psdu = make_psdu(rng, 100);
  const TxFrame frame = build_frame(psdu, mcs_for_rate(6));
  CxVec samples = frame_to_samples(frame);

  // Append 3 whole symbols and a partial one.
  const CxVec filler(kNumDataSubcarriers, Cx{1.0, 0.0});
  for (int i = 0; i < 3; ++i) {
    const CxVec bins =
        assemble_frequency_bins(filler, frame.num_symbols() + 1 + i);
    const CxVec time = bins_to_time(bins);
    samples.insert(samples.end(), time.begin(), time.end());
  }
  samples.insert(samples.end(), 37, Cx{0.0, 0.0});  // partial

  const FrontEndResult fe = receiver_front_end(samples);
  ASSERT_TRUE(fe.signal.has_value());
  EXPECT_EQ(fe.trailer_bins.size(), 3u);
  for (const auto bins : fe.trailer_bins) {
    EXPECT_EQ(bins.size(), static_cast<std::size_t>(kFftSize));
  }
}

TEST(ReceiverInternals, NoTrailerWhenExactLength) {
  Rng rng(3);
  const Bytes psdu = make_psdu(rng, 100);
  const CxVec samples =
      frame_to_samples(build_frame(psdu, mcs_for_rate(6)));
  const FrontEndResult fe = receiver_front_end(samples);
  ASSERT_TRUE(fe.signal.has_value());
  EXPECT_TRUE(fe.trailer_bins.empty());
}

TEST(ReceiverInternals, EqualizeZeroesDeadBins) {
  std::array<Cx, kFftSize> channel{};
  for (auto& h : channel) h = Cx{2.0, 0.0};
  const auto bins = data_subcarrier_bins();
  channel[static_cast<std::size_t>(bins[7])] = Cx{0.0, 0.0};  // dead bin

  CxVec raw(kFftSize, Cx{4.0, 0.0});
  const CxVec points = equalize_data_points(raw, channel);
  EXPECT_EQ(points[7], (Cx{0.0, 0.0}));
  EXPECT_NEAR(std::abs(points[8] - Cx{2.0, 0.0}), 0.0, 1e-12);
}

TEST(ReceiverInternals, CfoReportedByFrontEnd) {
  Rng rng(4);
  const Bytes psdu = make_psdu(rng, 200);
  const CxVec clean = frame_to_samples(build_frame(psdu, mcs_for_rate(12)));

  ImpairmentProfile profile;
  profile.cfo_hz = 18e3;
  RadioImpairments radio(profile, 5);
  const CxVec impaired = radio.apply(clean);
  const FrontEndResult fe = receiver_front_end(impaired);
  ASSERT_TRUE(fe.signal.has_value());
  EXPECT_NEAR(fe.cfo_hz, 18e3, 500.0);
}

TEST(ReceiverInternals, NoiseEstimateUnaffectedByCfoResidual) {
  // The regression that motivated CPE-aware noise estimation: a small
  // CFO residual must not inflate the pilot noise estimate at the end of
  // a long packet.
  Rng rng(6);
  const Bytes psdu = make_psdu(rng, 1500);  // long packet
  const Mcs& mcs = mcs_for_rate(12);
  const CxVec clean = frame_to_samples(build_frame(psdu, mcs));

  ImpairmentProfile profile;
  profile.cfo_hz = 7e3;
  RadioImpairments radio(profile, 7);
  CxVec samples = radio.apply(clean);
  const double nv = noise_var_for_snr_db(18.0);
  for (auto& x : samples) x += rng.complex_gaussian(nv);

  const FrontEndResult fe = receiver_front_end(samples);
  ASSERT_TRUE(fe.signal.has_value());
  const double expected = freq_noise_var(nv);
  EXPECT_LT(fe.noise_var, 2.0 * expected);
  EXPECT_GT(fe.noise_var, 0.4 * expected);
}

TEST(ReceiverInternals, SignalFieldMisdeclaredLengthHandled) {
  // Chop the burst so the SIGNAL-declared length exceeds the samples:
  // the front end must retract the SIGNAL rather than read off the end.
  Rng rng(8);
  const Bytes psdu = make_psdu(rng, 500);
  const CxVec samples =
      frame_to_samples(build_frame(psdu, mcs_for_rate(24)));
  const std::span<const Cx> chopped(samples.data(), 320 + 80 + 3 * 80);
  const FrontEndResult fe = receiver_front_end(chopped);
  EXPECT_FALSE(fe.signal.has_value());
  EXPECT_TRUE(fe.data_bins.empty());
}

// The front end rotates only the samples later stages read. Oracle: the
// front end as it was, with two full correct_cfo() passes over a copy of
// the burst, then the same estimators on the corrected copy.
struct FrontEndOracle {
  double cfo_hz = 0.0;
  std::array<Cx, kFftSize> channel{};
  double noise_var = 0.0;
  std::vector<CxVec> data_bins;
  std::vector<CxVec> trailer_bins;
};

FrontEndOracle oracle_front_end(std::span<const Cx> raw, std::size_t n_sym) {
  FrontEndOracle o;
  CxVec corrected(raw.begin(), raw.end());
  const double coarse =
      estimate_cfo_coarse(std::span(corrected).first(kStfSamples));
  correct_cfo(corrected, coarse);
  const double fine = estimate_cfo_fine(
      std::span(corrected).subspan(kStfSamples, kLtfSamples));
  correct_cfo(corrected, fine);
  o.cfo_hz = coarse + fine;
  const std::span<const Cx> samples(corrected);
  o.channel = estimate_channel(samples.subspan(kStfSamples, kLtfSamples));
  const auto symbol = [&samples](std::size_t s) {
    return time_to_bins(samples.subspan(
        static_cast<std::size_t>(kPreambleSamples) + s * kSymbolSamples,
        kSymbolSamples));
  };
  double noise_sum = pilot_noise_estimate(symbol(0), o.channel, 0);
  int noise_count = 1;
  for (std::size_t s = 1; s <= n_sym; ++s) {
    o.data_bins.push_back(symbol(s));
    noise_sum += pilot_noise_estimate(o.data_bins.back(), o.channel,
                                      static_cast<int>(s));
    ++noise_count;
  }
  o.noise_var = noise_sum / noise_count;
  const std::size_t whole =
      (raw.size() - static_cast<std::size_t>(kPreambleSamples)) /
      kSymbolSamples;
  for (std::size_t s = n_sym + 1; s < whole; ++s) {
    o.trailer_bins.push_back(symbol(s));
  }
  return o;
}

bool same_bits(std::span<const Cx> a, std::span<const Cx> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cx)) == 0;
}

void expect_front_end_matches_oracle(std::span<const Cx> raw,
                                     const TxFrame& frame) {
  const FrontEndResult fe = receiver_front_end(raw);
  const FrontEndOracle o =
      oracle_front_end(raw, static_cast<std::size_t>(frame.num_symbols()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fe.cfo_hz),
            std::bit_cast<std::uint64_t>(o.cfo_hz));
  EXPECT_TRUE(same_bits(fe.channel, o.channel));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fe.noise_var),
            std::bit_cast<std::uint64_t>(o.noise_var));
  ASSERT_TRUE(fe.signal.has_value());
  EXPECT_EQ(fe.signal->mcs, frame.mcs);
  EXPECT_EQ(fe.signal->length_octets, static_cast<int>(frame.psdu_octets));
  ASSERT_EQ(fe.data_bins.size(), o.data_bins.size());
  for (std::size_t s = 0; s < o.data_bins.size(); ++s) {
    EXPECT_TRUE(same_bits(fe.data_bins[s], o.data_bins[s])) << "symbol " << s;
  }
  ASSERT_EQ(fe.trailer_bins.size(), o.trailer_bins.size());
  for (std::size_t s = 0; s < o.trailer_bins.size(); ++s) {
    EXPECT_TRUE(same_bits(fe.trailer_bins[s], o.trailer_bins[s]))
        << "trailer " << s;
  }
}

TEST(ReceiverInternals, SyncMatchesTwoFullCorrectionPasses) {
  Rng rng(10);
  const Bytes psdu = make_psdu(rng, 600);
  const TxFrame frame = build_frame(psdu, mcs_for_rate(24));
  CxVec tx = frame_to_samples(frame);
  // Three trailer symbols' worth of samples and a partial one.
  for (int i = 0; i < 3 * kSymbolSamples + 37; ++i) {
    tx.push_back(rng.complex_gaussian(0.02));
  }
  const FadingChannel channel(MultipathProfile{}, 11);
  const double nv = noise_var_for_snr_db(20.0);
  for (const bool impaired : {false, true}) {
    ImpairmentProfile profile;
    profile.cfo_hz = impaired ? 41e3 : 0.0;
    profile.phase_noise_std = impaired ? 2e-3 : 0.0;
    profile.tx_evm_floor = impaired ? 0.02 : 0.0;
    RadioImpairments radio(profile, 12);
    Rng noise(13);
    const CxVec rx = channel.transmit(radio.apply(tx), nv, noise);
    SCOPED_TRACE(impaired ? "with CFO impairments" : "without impairments");
    expect_front_end_matches_oracle(rx, frame);
  }
}

}  // namespace
}  // namespace silence

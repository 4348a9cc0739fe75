// End-to-end PHY loopback: full transmit chain -> (clean or noisy,
// possibly faded, channel) -> full receive chain, across every 802.11a
// rate.
#include <gtest/gtest.h>

#include "channel/fading.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "phy/puncture.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"
#include "phy/workspace.h"

namespace silence {
namespace {

Bytes random_psdu(Rng& rng, std::size_t total) {
  Bytes psdu = rng.bytes(total - 4);
  append_fcs(psdu);
  return psdu;
}

class LoopbackAllRates : public ::testing::TestWithParam<int> {};

TEST_P(LoopbackAllRates, CleanChannelRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Mcs& mcs = mcs_for_rate(GetParam());
  const Bytes psdu = random_psdu(rng, 300);
  const TxFrame frame = build_frame(psdu, mcs);
  const CxVec samples = frame_to_samples(frame);

  const RxPacket packet = receive_packet(samples);
  ASSERT_TRUE(packet.signal.has_value());
  EXPECT_EQ(packet.signal->mcs->data_rate_mbps, GetParam());
  EXPECT_EQ(packet.signal->length_octets, 300);
  ASSERT_TRUE(packet.ok);
  EXPECT_EQ(packet.psdu, psdu);
}

TEST_P(LoopbackAllRates, HighSnrAwgnRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const Mcs& mcs = mcs_for_rate(GetParam());
  const Bytes psdu = random_psdu(rng, 500);
  CxVec samples = frame_to_samples(build_frame(psdu, mcs));

  // 12 dB above this rate's threshold: decoding must succeed.
  const double noise_var =
      noise_var_for_snr_db(mcs.min_required_snr_db + 12.0);
  for (auto& x : samples) x += rng.complex_gaussian(noise_var);

  const RxPacket packet = receive_packet(samples);
  ASSERT_TRUE(packet.ok);
  EXPECT_EQ(packet.psdu, psdu);
}

TEST_P(LoopbackAllRates, FadedChannelRoundTrip) {
  // Noise is pinned to the *measured* (fading-penalized) SNR: rate
  // adaptation only ever selects an MCS when the measured SNR clears its
  // threshold, so decoding must succeed with margin above it.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  const Mcs& mcs = mcs_for_rate(GetParam());
  const Bytes psdu = random_psdu(rng, 400);
  const CxVec samples = frame_to_samples(build_frame(psdu, mcs));

  MultipathProfile profile;
  FadingChannel channel(profile, 12345);
  const double noise_var =
      noise_var_for_measured_snr(channel, mcs.min_required_snr_db + 8.0);
  const CxVec received = channel.transmit(samples, noise_var, rng);

  const RxPacket packet = receive_packet(received);
  ASSERT_TRUE(packet.ok) << "rate " << GetParam();
  EXPECT_EQ(packet.psdu, psdu);
}

INSTANTIATE_TEST_SUITE_P(Rates, LoopbackAllRates,
                         ::testing::Values(6, 9, 12, 18, 24, 36, 48, 54));

TEST(Loopback, SampleCountMatchesFrameMath) {
  Rng rng(1);
  const Bytes psdu = random_psdu(rng, 1024);
  const Mcs& mcs = mcs_for_rate(24);
  const TxFrame frame = build_frame(psdu, mcs);
  // 16 + 8*1024 + 6 = 8214 bits over 96 DBPS = 86 symbols.
  EXPECT_EQ(frame.num_symbols(), 86);
  const CxVec samples = frame_to_samples(frame);
  EXPECT_EQ(samples.size(), 320u + 80u + 86u * 80u);
  EXPECT_NEAR(frame.airtime_sec(), 20e-6 + 86 * 4e-6, 1e-12);
}

TEST(Loopback, LowSnrPacketFailsCrc) {
  Rng rng(2);
  const Bytes psdu = random_psdu(rng, 500);
  const Mcs& mcs = mcs_for_rate(54);
  CxVec samples = frame_to_samples(build_frame(psdu, mcs));
  // 54 Mbps at 6 dB is hopeless; the CRC must catch it (or SIGNAL fails).
  const double noise_var = noise_var_for_snr_db(6.0);
  for (auto& x : samples) x += rng.complex_gaussian(noise_var);
  const RxPacket packet = receive_packet(samples);
  EXPECT_FALSE(packet.ok);
}

TEST(Loopback, TruncatedBurstRejected) {
  Rng rng(3);
  const Bytes psdu = random_psdu(rng, 200);
  const CxVec samples = frame_to_samples(build_frame(psdu, mcs_for_rate(12)));
  const std::span<const Cx> truncated(samples.data(), samples.size() - 200);
  const RxPacket packet = receive_packet(truncated);
  EXPECT_FALSE(packet.ok);
}

TEST(Loopback, ScramblerSeedRecoveredInDecode) {
  Rng rng(4);
  const Bytes psdu = random_psdu(rng, 100);
  const Mcs& mcs = mcs_for_rate(12);
  const std::uint8_t seed = 0x2B;
  const CxVec samples = frame_to_samples(build_frame(psdu, mcs, seed));
  const FrontEndResult fe = receiver_front_end(samples);
  ASSERT_TRUE(fe.signal.has_value());
  const DecodeResult decode =
      decode_data_symbols(fe, mcs, static_cast<int>(psdu.size()));
  EXPECT_TRUE(decode.crc_ok);
  EXPECT_EQ(decode.scrambler_seed, seed);
}

TEST(Loopback, DecoderInputHardBitsMatchCodedStreamWhenClean) {
  Rng rng(5);
  const Bytes psdu = random_psdu(rng, 256);
  const Mcs& mcs = mcs_for_rate(36);
  const TxFrame frame = build_frame(psdu, mcs);
  const CxVec samples = frame_to_samples(frame);
  PhyWorkspace ws;
  const FrontEndResult fe = receiver_front_end(samples, ws);
  ASSERT_TRUE(fe.signal.has_value());
  const DecodeResult decode =
      decode_data_symbols(fe, mcs, static_cast<int>(psdu.size()), nullptr, ws);
  EXPECT_TRUE(decode.crc_ok);
  // The decoder input is left in ws.mother in mother-code order; punctured
  // back, its hard decisions are the transmitted coded stream.
  Bits hard;
  hard_decisions_into(ws.mother, hard);
  const Bits decoder_input_hard = puncture(hard, mcs.code_rate);
  ASSERT_EQ(decoder_input_hard.size(), frame.coded_bits.size());
  EXPECT_EQ(hamming_distance(decoder_input_hard, frame.coded_bits), 0u);
}

TEST(Loopback, PsduSizeLimits) {
  Rng rng(6);
  EXPECT_THROW(build_frame({}, mcs_for_rate(6)), std::invalid_argument);
  const Bytes big = rng.bytes(4096);
  EXPECT_THROW(build_frame(big, mcs_for_rate(6)), std::invalid_argument);
}

}  // namespace
}  // namespace silence

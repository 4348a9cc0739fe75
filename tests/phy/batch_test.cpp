// Batch-width determinism suite for the SoA PHY engine (phy/batch.h).
//
// The engine's contract is bit-identity, not closeness: every comparison
// here is on the raw IEEE-754 bytes (memcmp), never a tolerance. Each
// facade is checked against its scalar twin on clean, noisy and faded
// bursts, across batch widths 1..32 including ragged group tails.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "channel/fading.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/cos_link.h"
#include "phy/batch.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/scrambler.h"
#include "phy/transmitter.h"
#include "phy/viterbi.h"

namespace silence {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bit_equal(const Cx& a, const Cx& b) {
  return bit_equal(a.real(), b.real()) && bit_equal(a.imag(), b.imag());
}

::testing::AssertionResult grids_bit_equal(const SymbolGrid& a,
                                           const SymbolGrid& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "grid sizes differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t s = 0; s < a.size(); ++s) {
    const auto ra = a[s];
    const auto rb = b[s];
    for (std::size_t k = 0; k < ra.size(); ++k) {
      if (!bit_equal(ra[k], rb[k])) {
        return ::testing::AssertionFailure()
               << "grid cell [" << s << "][" << k << "] differs: " << ra[k]
               << " vs " << rb[k];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Bytes random_psdu(Rng& rng, std::size_t total) {
  Bytes psdu = rng.bytes(total - 4);
  append_fcs(psdu);
  return psdu;
}

// A faded + noisy burst that still decodes: the worst realistic input
// (denormal-free but fully irregular mantissas everywhere).
CxVec faded_burst(int rate, std::size_t octets, std::uint64_t seed,
                  Bytes* psdu_out = nullptr) {
  Rng rng(seed);
  const Mcs& mcs = mcs_for_rate(rate);
  const Bytes psdu = random_psdu(rng, octets);
  if (psdu_out != nullptr) *psdu_out = psdu;
  const CxVec samples = frame_to_samples(build_frame(psdu, mcs));
  MultipathProfile profile;
  FadingChannel channel(profile, seed * 7919 + 1);
  const double noise_var =
      noise_var_for_measured_snr(channel, mcs.min_required_snr_db + 8.0);
  return channel.transmit(samples, noise_var, rng);
}

void expect_front_end_identical(const FrontEndResult& a,
                                const FrontEndResult& b) {
  EXPECT_EQ(a.preamble_ok, b.preamble_ok);
  ASSERT_EQ(a.signal.has_value(), b.signal.has_value());
  if (a.signal) {
    EXPECT_EQ(a.signal->mcs, b.signal->mcs);
    EXPECT_EQ(a.signal->length_octets, b.signal->length_octets);
  }
  for (std::size_t k = 0; k < a.channel.size(); ++k) {
    EXPECT_TRUE(bit_equal(a.channel[k], b.channel[k])) << "channel bin " << k;
  }
  EXPECT_TRUE(bit_equal(a.noise_var, b.noise_var));
  EXPECT_TRUE(bit_equal(a.cfo_hz, b.cfo_hz));
  EXPECT_TRUE(grids_bit_equal(a.data_bins, b.data_bins));
  EXPECT_TRUE(grids_bit_equal(a.trailer_bins, b.trailer_bins));
}

void expect_decode_identical(const DecodeResult& a, const DecodeResult& b) {
  EXPECT_EQ(a.crc_ok, b.crc_ok);
  EXPECT_EQ(a.psdu, b.psdu);
  EXPECT_TRUE(grids_bit_equal(a.eq_data, b.eq_data));
  EXPECT_EQ(a.decoder_input_hard, b.decoder_input_hard);
  EXPECT_EQ(a.info_bits, b.info_bits);
  EXPECT_EQ(a.scrambler_seed, b.scrambler_seed);
}

TEST(PhyBatch, FrontEndMatchesScalarBitForBit) {
  PhyBatch batch;
  for (const int rate : {6, 24, 54}) {
    CxVec burst = faded_burst(rate, 700, static_cast<std::uint64_t>(rate));
    // Trailer coverage: append two whole symbols of channel-looking noise.
    Rng trailer_rng(99);
    for (int i = 0; i < 2 * kSymbolSamples; ++i) {
      burst.push_back(trailer_rng.complex_gaussian(0.01));
    }
    const FrontEndResult scalar = receiver_front_end(burst);
    const FrontEndResult batched = receiver_front_end_batch(burst, batch);
    ASSERT_TRUE(scalar.signal.has_value()) << "rate " << rate;
    expect_front_end_identical(scalar, batched);
  }
}

// One +-inf or +-1e308 sample in a data symbol's body drives some of
// that symbol's complex products to NaN+iNaN, where GCC's multiply
// recovers infinities through __muldc3 (a bin comes out (-inf, -inf),
// not (nan, nan)). The batch front end must follow the scalar one there
// too, at every position tried.
TEST(PhyBatch, FrontEndMatchesScalarOnNonFiniteSamples) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::array<double, 4> values = {inf, -inf, 1e308, -1e308};
  PhyBatch batch;
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const CxVec clean = faded_burst(24, 300, seed);
    const FrontEndResult clean_fe = receiver_front_end(clean);
    ASSERT_TRUE(clean_fe.signal.has_value());
    const std::size_t n_sym = clean_fe.data_bins.size();
    Rng rng(seed + 100);
    for (int t = 0; t < 24; ++t) {
      CxVec burst = clean;
      const auto sym = static_cast<std::size_t>(rng.uniform_int(0, n_sym - 1));
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, kFftSize - 1));
      const double v = values[static_cast<std::size_t>(t) % values.size()];
      Cx& sample = burst[static_cast<std::size_t>(kPreambleSamples +
                                                  kSymbolSamples) +
                         static_cast<std::size_t>(kSymbolSamples) * sym +
                         kCpLength + k];
      sample = t % 3 == 0 ? Cx{v, sample.imag()}
               : t % 3 == 1 ? Cx{sample.real(), v}
                            : Cx{v, v};
      const FrontEndResult scalar = receiver_front_end(burst);
      const FrontEndResult batched = receiver_front_end_batch(burst, batch);
      ASSERT_TRUE(scalar.signal.has_value());
      EXPECT_TRUE(grids_bit_equal(scalar.data_bins, batched.data_bins))
          << "seed " << seed << " symbol " << sym << " sample " << k
          << " value " << v;
    }
  }
}

TEST(PhyBatch, DecodeMatchesScalarBitForBit) {
  PhyBatch batch;
  for (const int rate : {9, 24, 48}) {
    const CxVec burst =
        faded_burst(rate, 900, static_cast<std::uint64_t>(rate) + 10);
    const FrontEndResult fe = receiver_front_end(burst);
    ASSERT_TRUE(fe.signal.has_value());
    const DecodeResult scalar = decode_data_symbols(
        fe, *fe.signal->mcs, fe.signal->length_octets, nullptr);
    const DecodeResult batched = decode_data_symbols_batch(
        fe, *fe.signal->mcs, fe.signal->length_octets, nullptr, batch);
    expect_decode_identical(scalar, batched);
  }
}

TEST(PhyBatch, DecodeWithSilenceMaskMatchesScalar) {
  PhyBatch batch;
  const CxVec burst = faded_burst(24, 600, 42);
  const FrontEndResult fe = receiver_front_end(burst);
  ASSERT_TRUE(fe.signal.has_value());

  // Mask a scattering of (symbol, subcarrier) cells: the EVD erasure
  // injection must survive batching unchanged.
  SilenceMask mask(fe.data_bins.size(),
                   std::vector<std::uint8_t>(kNumDataSubcarriers, 0));
  Rng rng(7);
  for (auto& row : mask) {
    for (int i = 0; i < 4; ++i) {
      row[rng.uniform_int(0, row.size() - 1)] = 1;
    }
  }
  const DecodeResult scalar = decode_data_symbols(
      fe, *fe.signal->mcs, fe.signal->length_octets, &mask);
  const DecodeResult batched = decode_data_symbols_batch(
      fe, *fe.signal->mcs, fe.signal->length_octets, &mask, batch);
  expect_decode_identical(scalar, batched);
}

// TX has one assembly path, frame_to_samples(), for both chains: every
// data symbol must equal the portable butterfly loop's IFFT of that
// symbol plus its cyclic prefix, from a few symbols to a few hundred.
TEST(PhyBatch, TransmitMatchesScalarBitForBit) {
  const FftPlan& plan = fft_plan(kFftSize);
  for (const std::size_t octets : {40u, 120u, 340u, 1024u}) {
    Rng rng(octets);
    const Bytes psdu = random_psdu(rng, octets);
    for (const int rate : {6, 24, 54}) {
      const TxFrame frame = build_frame(psdu, mcs_for_rate(rate));
      const CxVec samples = frame_to_samples(frame);
      ASSERT_EQ(samples.size(),
                static_cast<std::size_t>(kPreambleSamples + kSymbolSamples) +
                    static_cast<std::size_t>(kSymbolSamples) *
                        frame.data_grid.size());
      CxVec body(kFftSize);
      for (std::size_t s = 0; s < frame.data_grid.size(); ++s) {
        assemble_frequency_bins_into(frame.data_grid[s],
                                     static_cast<int>(s) + 1, body);
        plan.run(body, /*inverse=*/true);
        const std::size_t offset =
            static_cast<std::size_t>(kPreambleSamples + kSymbolSamples) +
            static_cast<std::size_t>(kSymbolSamples) * s;
        for (std::size_t k = 0; k < static_cast<std::size_t>(kSymbolSamples);
             ++k) {
          const std::size_t from = (k + kFftSize - kCpLength) % kFftSize;
          ASSERT_TRUE(bit_equal(samples[offset + k], body[from]))
              << "symbol " << s << " sample " << k << " rate " << rate
              << " octets " << octets;
        }
      }
    }
  }
}

TEST(PhyBatch, ReceivePacketBatchAllWidthsMatchScalar) {
  PhyBatch batch;
  // 32 bursts of mixed rate/length, plus one noise-only lane (no SIGNAL)
  // so group processing exercises the skip path.
  std::vector<CxVec> bursts;
  std::vector<Bytes> psdus;
  const int rates[] = {6, 9, 12, 18, 24, 36, 48, 54};
  for (int i = 0; i < 31; ++i) {
    Bytes psdu;
    bursts.push_back(faded_burst(rates[i % 8],
                                 100 + static_cast<std::size_t>(i) * 29,
                                 static_cast<std::uint64_t>(i) + 1000, &psdu));
    psdus.push_back(psdu);
  }
  {
    Rng rng(555);
    CxVec noise(900);
    for (auto& x : noise) x = rng.complex_gaussian(1.0);
    bursts.insert(bursts.begin() + 5, noise);
    psdus.insert(psdus.begin() + 5, Bytes{});
  }

  std::vector<RxPacket> expected;
  for (const auto& b : bursts) expected.push_back(receive_packet(b));

  for (const std::size_t width : {1u, 2u, 3u, 8u, 13u, 32u}) {
    std::vector<std::span<const Cx>> spans;
    for (std::size_t i = 0; i < width; ++i) spans.emplace_back(bursts[i]);
    std::vector<RxPacket> got(width);
    receive_packet_batch(spans, batch, got);
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_EQ(got[i].ok, expected[i].ok) << "lane " << i << " w " << width;
      EXPECT_EQ(got[i].psdu, expected[i].psdu) << "lane " << i;
      ASSERT_EQ(got[i].signal.has_value(), expected[i].signal.has_value());
      if (got[i].ok) {
        EXPECT_EQ(got[i].psdu, psdus[i]);
      }
    }
  }

  // The single-burst facade too.
  for (std::size_t i = 0; i < 8; ++i) {
    const RxPacket got = receive_packet_batch(bursts[i], batch);
    EXPECT_EQ(got.ok, expected[i].ok);
    EXPECT_EQ(got.psdu, expected[i].psdu);
  }
}

// --- CoS link facades -----------------------------------------------------

const std::vector<int> kCosControl = {4, 9, 14, 19, 24, 29, 34, 39};

CosTxConfig cos_tx_config(int mbps) {
  CosTxConfig config;
  config.mcs = McsId::for_rate(mbps);
  config.control_subcarriers = kCosControl;
  return config;
}

CosRxConfig cos_rx_config() {
  CosRxConfig config;
  config.control_subcarriers = kCosControl;
  return config;
}

// A faded CoS burst: data + embedded silence intervals through multipath.
CxVec cos_faded_burst(int rate, std::size_t octets, std::uint64_t seed) {
  Rng rng(seed);
  const Mcs& mcs = mcs_for_rate(rate);
  const Bytes psdu = random_psdu(rng, octets);
  const Bits control = rng.bits(24);
  const CosTxPacket tx = cos_transmit(psdu, control, cos_tx_config(rate));
  MultipathProfile profile;
  FadingChannel channel(profile, seed * 104729 + 3);
  const double noise_var =
      noise_var_for_measured_snr(channel, mcs.min_required_snr_db + 10.0);
  return channel.transmit(tx.samples, noise_var, rng);
}

void expect_cos_identical(const CosRxPacket& a, const CosRxPacket& b) {
  expect_front_end_identical(a.fe, b.fe);
  expect_decode_identical(a.decode, b.decode);
  EXPECT_EQ(a.data_ok, b.data_ok);
  EXPECT_EQ(a.psdu, b.psdu);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
  EXPECT_EQ(a.control_bits, b.control_bits);
  ASSERT_EQ(a.evm_valid, b.evm_valid);
  if (a.evm_valid) {
    for (int sc = 0; sc < kNumDataSubcarriers; ++sc) {
      EXPECT_TRUE(bit_equal(a.evm[static_cast<std::size_t>(sc)],
                            b.evm[static_cast<std::size_t>(sc)]))
          << "evm subcarrier " << sc;
    }
  }
  EXPECT_EQ(a.next_control_subcarriers, b.next_control_subcarriers);
}

TEST(PhyBatch, CosTransmitMatchesScalarBitForBit) {
  PhyBatch batch;
  Rng rng(808);
  for (const int rate : {6, 24, 54}) {
    const Bytes psdu = random_psdu(rng, 500);
    const Bits control = rng.bits(40);
    const CosTxPacket scalar = cos_transmit(psdu, control, cos_tx_config(rate));
    const CosTxPacket batched =
        cos_transmit(psdu, control, cos_tx_config(rate), batch);
    EXPECT_EQ(scalar.plan.mask, batched.plan.mask);
    EXPECT_EQ(scalar.plan.bits_sent, batched.plan.bits_sent);
    EXPECT_TRUE(grids_bit_equal(scalar.frame.data_grid,
                                batched.frame.data_grid));
    ASSERT_EQ(scalar.samples.size(), batched.samples.size());
    for (std::size_t i = 0; i < scalar.samples.size(); ++i) {
      ASSERT_TRUE(bit_equal(scalar.samples[i], batched.samples[i]))
          << "sample " << i << " rate " << rate;
    }
  }
}

TEST(PhyBatch, CosReceiveMatchesScalarBitForBit) {
  PhyBatch batch;
  for (const int rate : {9, 24, 48}) {
    const CxVec burst =
        cos_faded_burst(rate, 800, static_cast<std::uint64_t>(rate) + 70);
    const CosRxPacket scalar = cos_receive(burst, cos_rx_config(),
                                           Modulation::kQam16);
    ASSERT_TRUE(scalar.fe.signal.has_value()) << "rate " << rate;
    const CosRxPacket batched =
        cos_receive(burst, cos_rx_config(), Modulation::kQam16, batch);
    expect_cos_identical(scalar, batched);
  }
}

TEST(PhyBatch, CosReceiveMultiLaneMatchesScalar) {
  PhyBatch batch;
  const int rates[] = {6, 12, 24, 36, 54, 9, 18, 48};
  std::vector<CxVec> bursts;
  for (int i = 0; i < 11; ++i) {
    bursts.push_back(cos_faded_burst(rates[i % 8],
                                     150 + static_cast<std::size_t>(i) * 41,
                                     static_cast<std::uint64_t>(i) + 3000));
  }
  // One lane with no decodable SIGNAL in the middle of a group.
  {
    Rng rng(414);
    CxVec noise(800);
    for (auto& x : noise) x = rng.complex_gaussian(1.0);
    bursts.insert(bursts.begin() + 3, noise);
  }

  std::vector<CosRxPacket> expected;
  for (const auto& b : bursts) {
    expected.push_back(cos_receive(b, cos_rx_config(), std::nullopt));
  }

  for (const std::size_t width : {1u, 3u, 8u, 12u}) {
    std::vector<std::span<const Cx>> spans;
    for (std::size_t i = 0; i < width; ++i) spans.emplace_back(bursts[i]);
    const std::vector<CosRxPacket> got =
        cos_receive_batch(spans, cos_rx_config(), std::nullopt, batch);
    ASSERT_EQ(got.size(), width);
    for (std::size_t i = 0; i < width; ++i) {
      SCOPED_TRACE("lane " + std::to_string(i) + " width " +
                   std::to_string(width));
      expect_cos_identical(expected[i], got[i]);
    }
  }
}

// --- Lane-batched Viterbi -------------------------------------------------

std::vector<double> random_llrs(Rng& rng, std::size_t steps) {
  std::vector<double> llrs(steps * 2);
  for (auto& v : llrs) {
    v = rng.uniform() * 20.0 - 10.0;
    if (rng.uniform() < 0.05) v = 0.0;  // erasures
  }
  return llrs;
}

TEST(PhyBatch, ViterbiBatchMatchesScalarPerLane) {
  const ViterbiDecoder decoder;
  Rng rng(2024);
  // Ragged lane lengths around each other, including an empty lane.
  const std::size_t steps[] = {257, 64, 0, 1024, 1024, 3, 511, 258};
  for (const bool terminated : {false, true}) {
    for (std::size_t nlanes = 1; nlanes <= 8; ++nlanes) {
      std::vector<std::vector<double>> streams;
      for (std::size_t l = 0; l < nlanes; ++l) {
        streams.push_back(random_llrs(rng, steps[l]));
      }
      // Special values: quantizer must treat them identically per lane.
      if (nlanes >= 4) {
        streams[1][2] = std::numeric_limits<double>::infinity();
        streams[1][3] = -std::numeric_limits<double>::infinity();
        streams[3][10] = std::numeric_limits<double>::quiet_NaN();
      }

      std::vector<std::span<const double>> spans;
      for (const auto& s : streams) spans.emplace_back(s);
      std::vector<Bits> got(nlanes);
      ViterbiBatchWorkspace ws;
      decoder.decode_fixed_batch(spans, terminated, ws, got);

      for (std::size_t l = 0; l < nlanes; ++l) {
        const Bits expect = decoder.decode_fixed(streams[l], terminated);
        EXPECT_EQ(got[l], expect)
            << "lane " << l << " of " << nlanes << " term " << terminated;
      }
    }
  }
}

TEST(PhyBatch, ViterbiBatchOversizedLaneFallsBack) {
  const ViterbiDecoder decoder;
  Rng rng(77);
  std::vector<std::vector<double>> streams;
  streams.push_back(random_llrs(rng, ViterbiDecoder::kMaxFixedSteps + 1));
  streams.push_back(random_llrs(rng, 200));
  std::vector<std::span<const double>> spans(streams.begin(), streams.end());
  std::vector<Bits> got(2);
  ViterbiBatchWorkspace ws;
  decoder.decode_fixed_batch(spans, /*terminated=*/false, ws, got);
  for (std::size_t l = 0; l < streams.size(); ++l) {
    EXPECT_EQ(got[l], decoder.decode_fixed(streams[l], false)) << l;
  }
}

TEST(PhyBatch, ViterbiBatchRejectsBadArguments) {
  const ViterbiDecoder decoder;
  ViterbiBatchWorkspace ws;
  std::vector<Bits> out;
  EXPECT_THROW(decoder.decode_fixed_batch({}, false, ws, out),
               std::invalid_argument);
  std::vector<double> odd(3, 0.5);
  std::vector<std::span<const double>> spans{odd};
  out.resize(1);
  EXPECT_THROW(decoder.decode_fixed_batch(spans, false, ws, out),
               std::invalid_argument);
}

TEST(PhyBatch, FastDescrambleMatchesLfsrForEverySeed) {
  Rng rng(31337);
  const Bits plain = [&] {
    Bits b(500);
    for (auto& v : b) v = rng.uniform() < 0.5 ? 1 : 0;
    return b;
  }();
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    Scrambler reference(seed);
    const Bits expect = reference.apply(plain);
    Bits got;
    Scrambler::apply_with_seed_into(seed, plain, got);
    EXPECT_EQ(got, expect) << "seed " << static_cast<int>(seed);
  }
  EXPECT_THROW(Scrambler::period_cached(0), std::invalid_argument);
}

TEST(PhyBatch, EngineSwitchRoundTrips) {
  EXPECT_TRUE(phy_batch_enabled());
  set_phy_batch_enabled(false);
  EXPECT_FALSE(phy_batch_enabled());
  set_phy_batch_enabled(true);
  EXPECT_TRUE(phy_batch_enabled());
}

}  // namespace
}  // namespace silence

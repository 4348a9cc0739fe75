#include "phy/ofdm.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/crc32.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "phy/modulation.h"
#include "phy/pilots.h"
#include "phy/preamble.h"
#include "phy/transmitter.h"

namespace silence {
namespace {

CxVec random_points(Rng& rng, Modulation mod) {
  const auto bits =
      rng.bits(static_cast<std::size_t>(kNumDataSubcarriers) *
               static_cast<std::size_t>(bits_per_symbol(mod)));
  return map_bits(bits, mod);
}

TEST(Ofdm, AssembleplacesDataAndPilots) {
  Rng rng(1);
  const CxVec data = random_points(rng, Modulation::kQpsk);
  const CxVec bins = assemble_frequency_bins(data, 3);
  const auto data_bins = data_subcarrier_bins();
  for (int i = 0; i < kNumDataSubcarriers; ++i) {
    EXPECT_EQ(bins[static_cast<std::size_t>(data_bins[static_cast<std::size_t>(i)])],
              data[static_cast<std::size_t>(i)]);
  }
  const auto pilots = pilot_values(3);
  const auto pilot_bins = pilot_subcarrier_bins();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bins[static_cast<std::size_t>(pilot_bins[static_cast<std::size_t>(i)])],
              pilots[static_cast<std::size_t>(i)]);
  }
  // Guards and DC are zero.
  EXPECT_EQ(bins[0], (Cx{0.0, 0.0}));
  for (int guard = 27; guard <= 37; ++guard) {
    EXPECT_EQ(bins[static_cast<std::size_t>(guard)], (Cx{0.0, 0.0}));
  }
}

TEST(Ofdm, TimeFrequencyRoundTrip) {
  Rng rng(2);
  const CxVec data = random_points(rng, Modulation::kQam64);
  const CxVec bins = assemble_frequency_bins(data, 7);
  const CxVec time = bins_to_time(bins);
  ASSERT_EQ(time.size(), static_cast<std::size_t>(kSymbolSamples));
  const CxVec recovered = time_to_bins(time);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_NEAR(std::abs(recovered[k] - bins[k]), 0.0, 1e-9);
  }
}

TEST(Ofdm, CyclicPrefixIsTail) {
  Rng rng(3);
  const CxVec data = random_points(rng, Modulation::kBpsk);
  const CxVec time = bins_to_time(assemble_frequency_bins(data, 0));
  for (int n = 0; n < kCpLength; ++n) {
    EXPECT_EQ(time[static_cast<std::size_t>(n)],
              time[static_cast<std::size_t>(n + kFftSize)]);
  }
}

TEST(Ofdm, ExtractDataPointsInverseOfAssemble) {
  Rng rng(4);
  const CxVec data = random_points(rng, Modulation::kQam16);
  const CxVec bins = assemble_frequency_bins(data, 5);
  const CxVec extracted = extract_data_points(bins);
  ASSERT_EQ(extracted.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(extracted[i], data[i]);
  }
}

TEST(Ofdm, ExtractPilotPoints) {
  Rng rng(5);
  const CxVec data = random_points(rng, Modulation::kQpsk);
  const CxVec bins = assemble_frequency_bins(data, 11);
  const auto pilots = extract_pilot_points(bins);
  const auto expected = pilot_values(11);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pilots[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)]);
  }
}

TEST(Ofdm, SilencedSubcarrierHasZeroEnergyAfterFft) {
  // The CoS mechanism at PHY level: zeroing a data point before the IFFT
  // leaves exactly zero energy on that bin after the receiver FFT.
  Rng rng(6);
  CxVec data = random_points(rng, Modulation::kQam16);
  data[20] = Cx{0.0, 0.0};  // silence logical subcarrier 20
  const CxVec time = bins_to_time(assemble_frequency_bins(data, 1));
  const CxVec rx_bins = time_to_bins(time);
  const auto data_bins = data_subcarrier_bins();
  EXPECT_NEAR(std::abs(rx_bins[static_cast<std::size_t>(data_bins[20])]), 0.0,
              1e-10);
  // Neighbors are untouched (orthogonality).
  EXPECT_GT(std::abs(rx_bins[static_cast<std::size_t>(data_bins[19])]), 0.1);
  EXPECT_GT(std::abs(rx_bins[static_cast<std::size_t>(data_bins[21])]), 0.1);
}

// frame_to_samples() transforms each data symbol through the 64-point
// kernel: every symbol, cyclic prefix included, must equal the portable
// butterfly loop's IFFT of that symbol, byte for byte, from a few symbols
// to a few hundred.
TEST(Ofdm, FrameSymbolsMatchPortableInverseFft) {
  const FftPlan& plan = fft_plan(kFftSize);
  for (const std::size_t octets : {40u, 120u, 340u, 1024u}) {
    Rng rng(octets);
    Bytes psdu = rng.bytes(octets - 4);
    append_fcs(psdu);
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
          ASSERT_EQ(std::memcmp(&samples[offset + k], &body[from], sizeof(Cx)),
                    0)
              << "symbol " << s << " sample " << k << " rate " << rate
              << " octets " << octets;
        }
      }
    }
  }
}

TEST(Ofdm, SizeValidation) {
  const CxVec wrong(47);
  EXPECT_THROW(assemble_frequency_bins(wrong, 0), std::invalid_argument);
  const CxVec bad_bins(63);
  EXPECT_THROW(bins_to_time(bad_bins), std::invalid_argument);
  const CxVec bad_time(79);
  EXPECT_THROW(time_to_bins(bad_time), std::invalid_argument);
  EXPECT_THROW(extract_data_points(bad_bins), std::invalid_argument);
}

}  // namespace
}  // namespace silence

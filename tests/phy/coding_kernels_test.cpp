// Coding-chain kernels against the per-bit / per-point code they replace.
//
// The bit path (scrambler keystream and seed recovery, encoder and
// puncturer, interleaving mapper, fused deinterleave-depuncture,
// corrected-bit count, PSDU descramble-and-pack, octet packing, CRC-32,
// and build_frame and decode_data_symbols around them), the mapper and
// the row demapper are table, block or word-wide kernels; each must
// equal its reference exactly. The bit path's references are the per-bit
// loops in phy/bit_reference.h; the demapper's are the brute-force
// searches below.
// Every comparison is exact: EXPECT_EQ on bits and octets, memcmp on
// doubles and points (so -0.0 and NaN payloads count).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "phy/bit_reference.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/params.h"
#include "phy/puncture.h"
#include "phy/receiver.h"
#include "phy/scrambler.h"
#include "phy/transmitter.h"
#include "phy/viterbi.h"
#include "phy/workspace.h"

namespace silence {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
constexpr Modulation kAllMods[] = {Modulation::kBpsk, Modulation::kQpsk,
                                   Modulation::kQam16, Modulation::kQam64};

// Empty spans may carry null data, which memcmp must not see.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_points(std::span<const Cx> a, std::span<const Cx> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Cx)) == 0);
}

constexpr CodeRate kAllRates[] = {CodeRate::kRate1of2, CodeRate::kRate2of3,
                                  CodeRate::kRate3of4};

// A bit stream whose every third byte also sets high bits, which every
// kernel must ignore as the per-bit loops' `& 1` does.
Bits noisy_bits(Rng& rng, std::size_t n) {
  Bits bits = rng.bits(n);
  for (std::size_t i = 0; i < n; i += 3) {
    bits[i] =
        static_cast<std::uint8_t>(bits[i] | (rng.uniform_int(1, 127) << 1));
  }
  return bits;
}

// LLRs mixing Gaussians with exact zeros, -0.0, NaN and +-inf.
std::vector<double> special_llrs(Rng& rng, std::size_t n) {
  std::vector<double> llrs(n);
  for (auto& v : llrs) {
    switch (rng.uniform_int(0, 9)) {
      case 0: v = 0.0; break;
      case 1: v = -0.0; break;
      case 2: v = kNan; break;
      case 3: v = rng.uniform() < 0.5 ? kInf : -kInf; break;
      default: v = rng.gaussian(); break;
    }
  }
  return llrs;
}

// --- Oracles ---------------------------------------------------------------

constexpr std::array<double, 2> kPam2 = {-1.0, 1.0};
constexpr std::array<double, 4> kPam4 = {-3.0, -1.0, 3.0, 1.0};
constexpr std::array<double, 8> kPam8 = {-7.0, -5.0, -1.0, -3.0,
                                         7.0,  5.0,  1.0,  3.0};

// The brute-force per-axis search: every level's distance, once per bit.
template <std::size_t N>
void oracle_axis_llrs(double y, const std::array<double, N>& levels, int bits,
                      double inv_noise, std::vector<double>& out) {
  for (int b = 0; b < bits; ++b) {
    double best0 = std::numeric_limits<double>::max();
    double best1 = std::numeric_limits<double>::max();
    for (std::size_t idx = 0; idx < N; ++idx) {
      const double d = y - levels[idx];
      const double dist = d * d;
      const bool bit_is_one = ((idx >> (bits - 1 - b)) & 1U) != 0;
      if (bit_is_one) {
        if (dist < best1) best1 = dist;
      } else {
        if (dist < best0) best0 = dist;
      }
    }
    out.push_back((best1 - best0) * inv_noise);
  }
}

void oracle_demod_llrs(Cx y, Modulation mod, double noise_var,
                       std::vector<double>& out) {
  const double scale = modulation_scale(mod);
  const double yi = y.real() / scale;
  const double yq = y.imag() / scale;
  const double inv_noise = scale * scale / std::max(noise_var, 1e-12);
  switch (mod) {
    case Modulation::kBpsk:
      oracle_axis_llrs(yi, kPam2, 1, inv_noise, out);
      return;
    case Modulation::kQpsk:
      oracle_axis_llrs(yi, kPam2, 1, inv_noise, out);
      oracle_axis_llrs(yq, kPam2, 1, inv_noise, out);
      return;
    case Modulation::kQam16:
      oracle_axis_llrs(yi, kPam4, 2, inv_noise, out);
      oracle_axis_llrs(yq, kPam4, 2, inv_noise, out);
      return;
    case Modulation::kQam64:
      oracle_axis_llrs(yi, kPam8, 3, inv_noise, out);
      oracle_axis_llrs(yq, kPam8, 3, inv_noise, out);
      return;
  }
}

// The per-point receive-side demap loop over a grid of equalized rows.
std::vector<double> oracle_demap_grid(const SymbolGrid& grid,
                                      const std::array<Cx, kFftSize>& channel,
                                      double noise_var, const Mcs& mcs,
                                      const SilenceMask* silence) {
  std::vector<double> llrs;
  const auto data_bins = data_subcarrier_bins();
  for (std::size_t s = 0; s < grid.size(); ++s) {
    for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
      if (silence != nullptr && (*silence)[s][i] != 0) {
        for (int b = 0; b < mcs.n_bpsc; ++b) llrs.push_back(0.0);
        continue;
      }
      const Cx h = channel[static_cast<std::size_t>(data_bins[i])];
      const double h2 = std::max(std::norm(h), 1e-9);
      oracle_demod_llrs(grid[s][i], mcs.modulation, noise_var / h2, llrs);
    }
  }
  return llrs;
}

Bits oracle_puncture(std::span<const std::uint8_t> coded, CodeRate rate) {
  static constexpr std::uint8_t k2of3[] = {1, 1, 1, 0};
  static constexpr std::uint8_t k3of4[] = {1, 1, 1, 0, 0, 1};
  std::span<const std::uint8_t> pattern;
  if (rate == CodeRate::kRate2of3) pattern = k2of3;
  if (rate == CodeRate::kRate3of4) pattern = k3of4;
  if (pattern.empty()) return Bits(coded.begin(), coded.end());
  Bits out;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (pattern[i % pattern.size()]) out.push_back(coded[i]);
  }
  return out;
}

// Row demap through the kernel with per-point weights.
std::vector<double> row_demap(std::span<const Cx> points, Modulation mod,
                              std::span<const double> noise_vars,
                              const std::uint8_t* erased) {
  std::vector<double> weights(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    weights[i] = demod_llr_weight(mod, noise_vars[i]);
  }
  std::vector<double> out(points.size() *
                          static_cast<std::size_t>(bits_per_symbol(mod)));
  demod_row_llrs(points, mod, weights, erased, out);
  return out;
}

std::vector<double> oracle_row(std::span<const Cx> points, Modulation mod,
                               std::span<const double> noise_vars,
                               const std::uint8_t* erased) {
  std::vector<double> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (erased != nullptr && erased[i] != 0) {
      for (int b = 0; b < bits_per_symbol(mod); ++b) out.push_back(0.0);
      continue;
    }
    oracle_demod_llrs(points[i], mod, noise_vars[i], out);
  }
  return out;
}

// --- Encoder ---------------------------------------------------------------

TEST(CodingKernels, EncoderMatchesPerBitLoopAtEdgeLengths) {
  Rng rng(101);
  for (const std::size_t n : {0u, 1u, 7u, 13344u}) {
    const Bits input = rng.bits(n);
    EXPECT_EQ(convolutional_encode(input), bit_reference::encode(input)) << n;
  }
}

TEST(CodingKernels, EncoderMatchesPerBitLoopOnRandomStreams) {
  Rng rng(102);
  Bits out;
  for (int trial = 0; trial < 200; ++trial) {
    Bits input = rng.bits(static_cast<std::size_t>(rng.uniform_int(0, 700)));
    // Non-0/1 bytes: only bit 0 of each input byte counts, as in
    // conv_output.
    if (trial % 4 == 0) {
      for (auto& b : input) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    convolutional_encode_into(input, out);  // reused buffer
    ASSERT_EQ(out, bit_reference::encode(input)) << "trial " << trial;
  }
}

// --- Mapper ----------------------------------------------------------------

TEST(CodingKernels, MapperMatchesMapSymbolAtEveryIndex) {
  for (const Modulation mod : kAllMods) {
    const int n = bits_per_symbol(mod);
    const std::size_t points = std::size_t{1} << n;
    Bits stream;
    CxVec expected;
    for (std::uint64_t v = 0; v < points; ++v) {
      const Bits bits = uint_to_bits(v, n);
      stream.insert(stream.end(), bits.begin(), bits.end());
      expected.push_back(map_symbol(bits, mod));
    }
    const CxVec got = map_bits(stream, mod);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(Cx)),
              0)
        << to_string(mod);
  }
}

TEST(CodingKernels, MapperMatchesMapSymbolOnRandomStreams) {
  Rng rng(103);
  for (const Modulation mod : kAllMods) {
    const auto n = static_cast<std::size_t>(bits_per_symbol(mod));
    Bits stream = rng.bits(n * 480);
    for (std::size_t i = 0; i < stream.size(); i += 7) stream[i] |= 0xFE;
    CxVec got(480);
    map_bits_into(stream, mod, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Cx want = map_symbol(std::span(stream).subspan(i * n, n), mod);
      ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(Cx)), 0)
          << to_string(mod) << " point " << i;
    }
  }
}

// --- Row demapper ----------------------------------------------------------

TEST(CodingKernels, RowDemapperMatchesBruteForceOnRandomRows) {
  Rng rng(104);
  for (const Modulation mod : kAllMods) {
    for (int trial = 0; trial < 40; ++trial) {
      CxVec points(kNumDataSubcarriers);
      std::vector<double> noise(kNumDataSubcarriers);
      std::vector<std::uint8_t> mask(kNumDataSubcarriers);
      for (std::size_t i = 0; i < points.size(); ++i) {
        points[i] = rng.complex_gaussian(trial % 2 == 0 ? 1.5 : 0.05) +
                    constellation(mod)[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<int>(constellation(mod).size()) - 1))];
        noise[i] = 1e-3 + rng.uniform();
        mask[i] = rng.uniform() < 0.25 ? 1 : 0;
      }
      EXPECT_TRUE(same_bits(row_demap(points, mod, noise, nullptr),
                            oracle_row(points, mod, noise, nullptr)))
          << to_string(mod) << " trial " << trial;
      EXPECT_TRUE(same_bits(row_demap(points, mod, noise, mask.data()),
                            oracle_row(points, mod, noise, mask.data())))
          << to_string(mod) << " masked trial " << trial;
    }
  }
}

TEST(CodingKernels, RowDemapperMatchesBruteForceOnSpecialValues) {
  const double values[] = {0.0,        -0.0,         kNan,   kInf,
                           -kInf,      1e300,        -1e300, kSubnormal,
                           -kSubnormal, 1e-310,      std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max(), 0.3, -2.5};
  const double noises[] = {0.5, 1e-13, 0.0, -1.0, 1e-12, kInf, kNan, 1e300};
  for (const Modulation mod : kAllMods) {
    CxVec points;
    std::vector<double> noise;
    std::size_t k = 0;
    for (const double re : values) {
      for (const double im : values) {
        points.emplace_back(re, im);
        noise.push_back(noises[k++ % std::size(noises)]);
      }
    }
    EXPECT_TRUE(same_bits(row_demap(points, mod, noise, nullptr),
                          oracle_row(points, mod, noise, nullptr)))
        << to_string(mod);
  }
}

TEST(CodingKernels, RowDemapperMatchesBruteForceOnDecisionBoundaries) {
  // Unscaled 0, +-2, +-4, +-6 are where the nearest level of a bit
  // changes; the levels themselves sit at the odd values. Each value is
  // scaled onto the constellation and nudged one ulp either way, so the
  // distances tie or nearly tie.
  for (const Modulation mod : kAllMods) {
    const double scale = modulation_scale(mod);
    std::vector<double> axis;
    for (int v = -8; v <= 8; ++v) {
      const double x = v * scale;
      axis.push_back(x);
      axis.push_back(std::nextafter(x, kInf));
      axis.push_back(std::nextafter(x, -kInf));
    }
    CxVec points;
    for (const double re : axis) {
      for (const double im : axis) points.emplace_back(re, im);
    }
    // Noise below the 1e-12 floor on every other point.
    std::vector<double> noise(points.size());
    for (std::size_t i = 0; i < noise.size(); ++i) {
      noise[i] = i % 2 == 0 ? 1e-14 : 0.25;
    }
    EXPECT_TRUE(same_bits(row_demap(points, mod, noise, nullptr),
                          oracle_row(points, mod, noise, nullptr)))
        << to_string(mod);
  }
}

TEST(CodingKernels, DemodLlrsIsTheOnePointRow) {
  Rng rng(105);
  for (const Modulation mod : kAllMods) {
    for (int trial = 0; trial < 50; ++trial) {
      const Cx y = rng.complex_gaussian(2.0);
      const double nv = rng.uniform() * 0.5;
      std::vector<double> got = {7.0};  // appends after existing values
      std::vector<double> want = {7.0};
      demod_llrs(y, mod, nv, got);
      oracle_demod_llrs(y, mod, nv, want);
      EXPECT_TRUE(same_bits(got, want)) << to_string(mod);
    }
  }
}

TEST(CodingKernels, PacketDemapMatchesPerPointLoop) {
  // demap_data_symbols (shared by both decoders) against the per-point loop:
  // the channel floor, per-subcarrier noise, silence masks.
  Rng rng(106);
  for (const Mcs& mcs : all_mcs()) {
    std::array<Cx, kFftSize> channel{};
    for (auto& h : channel) h = rng.complex_gaussian(1.0);
    const auto data_bins = data_subcarrier_bins();
    channel[static_cast<std::size_t>(data_bins[3])] = Cx{0.0, 0.0};
    channel[static_cast<std::size_t>(data_bins[17])] = Cx{1e-6, 0.0};
    const std::size_t rows = 9;
    SymbolGrid grid(kNumDataSubcarriers);
    SilenceMask mask(rows, std::vector<std::uint8_t>(kNumDataSubcarriers, 0));
    std::size_t masked = 0;
    for (std::size_t s = 0; s < rows; ++s) {
      const auto row = grid.append();
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] = rng.complex_gaussian(1.0);
        if (rng.uniform() < 0.2) {
          mask[s][i] = 1;
          ++masked;
        }
      }
    }
    for (const double noise_var : {0.03, 1e-13}) {
      std::vector<double> got = {1.0, 2.0};  // resized, not appended
      EXPECT_EQ(demap_data_symbols(grid, channel, noise_var, mcs, nullptr, got),
                0u);
      EXPECT_TRUE(same_bits(
          got, oracle_demap_grid(grid, channel, noise_var, mcs, nullptr)))
          << mcs.data_rate_mbps;
      EXPECT_EQ(demap_data_symbols(grid, channel, noise_var, mcs, &mask, got),
                masked * static_cast<std::size_t>(mcs.n_bpsc));
      EXPECT_TRUE(same_bits(
          got, oracle_demap_grid(grid, channel, noise_var, mcs, &mask)))
          << mcs.data_rate_mbps << " masked";
    }
  }
}

TEST(CodingKernels, HardDecisionsMarkNegativeLlrs) {
  const std::vector<double> llrs = {1.0, -1.0, 0.0, -0.0, kNan, -kInf, 1e-300,
                                    -1e-300};
  Bits hard(3, 9);
  hard_decisions_into(llrs, hard);
  EXPECT_EQ(hard, (Bits{0, 1, 0, 0, 0, 1, 0, 1}));
}

TEST(CodingKernels, CorrectedBitCountMatchesBranchyLoop) {
  // The OBS corrected-bit count (rate-1/2 re-encode against the
  // mother-code decoder input, punctured positions as zeros) against the
  // per-bit loop over the punctured stream: re-encode, puncture, count
  // non-erased hard-decision mismatches.
  Rng rng(109);
  for (const CodeRate rate : kAllRates) {
    const std::size_t period = rate == CodeRate::kRate1of2   ? 2
                               : rate == CodeRate::kRate2of3 ? 4
                                                             : 6;
    for (int trial = 0; trial < 30; ++trial) {
      const Bits decoded = noisy_bits(
          rng, 6 * static_cast<std::size_t>(rng.uniform_int(0, 300)) +
                   static_cast<std::size_t>(trial % 7));
      // Decoder input: shorter, equal or longer than the recode, by
      // whole puncturing periods.
      const std::size_t whole = 2 * decoded.size() / period * period;
      const std::size_t mother_size =
          std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(whole) +
                                          (trial % 3 - 1) * 4 *
                                              static_cast<std::ptrdiff_t>(period));
      const std::vector<double> punctured = special_llrs(
          rng, punctured_length(mother_size, rate));
      const Llrs mother = depuncture_llrs(punctured, rate, mother_size);
      EXPECT_EQ(count_corrected_bits(decoded, mother),
                bit_reference::corrected_bits(decoded, rate, punctured))
          << "trial " << trial;
    }
  }
  // Rate 1/2 at every length against every input length near it.
  for (std::size_t n = 0; n < 24; ++n) {
    const Bits decoded = noisy_bits(rng, n);
    for (std::size_t m = 0; m < 2 * n + 3; ++m) {
      const std::vector<double> llrs = special_llrs(rng, m);
      ASSERT_EQ(count_corrected_bits(decoded, llrs),
                bit_reference::corrected_bits(decoded, CodeRate::kRate1of2,
                                              llrs))
          << n << " " << m;
    }
  }
}

// --- Scrambler and puncturer -------------------------------------------------

TEST(CodingKernels, CachedScramblerMatchesRegisterForEverySeed) {
  Rng rng(107);
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    const std::span<const std::uint8_t> key = Scrambler::keystream_cached(seed);
    ASSERT_EQ(key.size(), Scrambler::kKeystreamPeriod + 7);
    const Bits sequence = Scrambler::sequence(seed, 8 * key.size());
    ASSERT_EQ(Bytes(key.begin(), key.end()), bit_reference::pack_bits(sequence))
        << "seed " << int{seed};
    // xor_keystream from any phase against the register on the unpacked
    // octets.
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 126u, 127u, 128u, 135u,
                                300u, 1001u}) {
      const auto first = static_cast<std::size_t>(rng.uniform_int(0, 400));
      Bytes octets = rng.bytes(n);
      Bits prefix(8 * first, 0);
      Bits unpacked = bytes_to_bits(octets);
      prefix.insert(prefix.end(), unpacked.begin(), unpacked.end());
      const Bits want = Scrambler(seed).apply(prefix);
      Scrambler::xor_keystream(seed, first, octets);
      ASSERT_EQ(octets,
                bit_reference::pack_bits(std::span(want).subspan(8 * first)))
          << "seed " << int{seed} << " n " << n << " first " << first;
    }
  }
}

TEST(CodingKernels, SeedRecoveryMatchesRegisterSearch) {
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    Bits first7 = Scrambler::sequence(seed, 7);
    first7[3] = static_cast<std::uint8_t>(first7[3] | 0xF0);
    EXPECT_EQ(Scrambler::recover_seed(first7), seed);
  }
  EXPECT_THROW(Scrambler::recover_seed(Bits(7, 0)), std::runtime_error);
  EXPECT_THROW(Scrambler::recover_seed(Bits(6, 1)), std::invalid_argument);
}

TEST(CodingKernels, PunctureMatchesPushBackLoop) {
  Rng rng(108);
  Bits got(5, 1);
  for (const CodeRate rate : {CodeRate::kRate1of2, CodeRate::kRate2of3,
                              CodeRate::kRate3of4}) {
    for (std::size_t n = 0; n < 40; ++n) {
      const Bits coded = rng.bits(n);
      puncture_into(coded, rate, got);
      ASSERT_EQ(got, oracle_puncture(coded, rate)) << "n " << n;
      EXPECT_EQ(punctured_length(n, rate), got.size());
    }
  }
}

// --- Bit path: transmitter ---------------------------------------------------

TEST(CodingKernels, EncodePuncturedMatchesPerBitChain) {
  // Every rate at every short length (partial final steps included) and
  // at random long ones; the packed input's unused high bits are set.
  Rng rng(110);
  for (const CodeRate rate : kAllRates) {
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
    for (int i = 0; i < 20; ++i) {
      lengths.push_back(static_cast<std::size_t>(rng.uniform_int(65, 33000)));
    }
    for (const std::size_t n : lengths) {
      const Bits bits = noisy_bits(rng, n);
      Bytes packed((n + 7) / 8, 0xFF);
      for (std::size_t i = 0; i < n; ++i) {
        if ((bits[i] & 1U) == 0) {
          packed[i / 8] =
              static_cast<std::uint8_t>(packed[i / 8] & ~(1U << (i % 8)));
        }
      }
      Bits coded(punctured_length(2 * n, rate), 7);
      encode_punctured(packed, n, rate, coded);
      ASSERT_EQ(coded, puncture(bit_reference::encode(bits), rate))
          << to_string(rate) << " n " << n;
    }
  }
  Bits wrong(3);
  EXPECT_THROW(encode_punctured(Bytes(1), 8, CodeRate::kRate1of2, wrong),
               std::invalid_argument);
}

TEST(CodingKernels, InterleaveMapMatchesScatterThenMap) {
  Rng rng(111);
  for (const Mcs& mcs : all_mcs()) {
    for (const std::size_t symbols : {1u, 2u, 7u, 40u}) {
      const Bits coded =
          noisy_bits(rng, symbols * static_cast<std::size_t>(mcs.n_cbps));
      CxVec got(symbols * kNumDataSubcarriers);
      interleave_map_into(coded, mcs, got);
      CxVec want(got.size());
      map_bits_into(interleave(coded, mcs), mcs.modulation, want);
      EXPECT_TRUE(same_points(got, want))
          << mcs.data_rate_mbps << " Mb/s, " << symbols << " symbols";
    }
    CxVec short_cells(kNumDataSubcarriers - 1);
    EXPECT_THROW(interleave_map_into(Bits(static_cast<std::size_t>(mcs.n_cbps)),
                                     mcs, short_cells),
                 std::invalid_argument);
  }
}

TEST(CodingKernels, BuildFrameMatchesPerBitChain) {
  // All eight MCS over PSDU lengths 1 to 4095 octets, the edges included,
  // and several scrambler seeds: the coded stream and the grid equal the
  // per-bit chain's.
  Rng rng(112);
  std::vector<std::size_t> lengths = {1,   2,   3,    4,    5,    7,   8,
                                      9,   15,  16,   17,   26,   27,  100,
                                      255, 256, 1023, 1500, 2304, 4094, 4095};
  for (int i = 0; i < 6; ++i) {
    lengths.push_back(static_cast<std::size_t>(rng.uniform_int(1, 4095)));
  }
  const std::uint8_t seeds[] = {0x5D, 1, 0x7F, 0x2B};
  int k = 0;
  for (const Mcs& mcs : all_mcs()) {
    for (const std::size_t n : lengths) {
      const Bytes psdu = rng.bytes(n);
      const std::uint8_t seed = seeds[k++ % 4];
      const TxFrame frame = build_frame(psdu, mcs, seed);
      Bits coded;
      SymbolGrid grid;
      bit_reference::build_frame_bits(psdu, mcs, seed, coded, grid);
      ASSERT_EQ(frame.coded_bits, coded) << mcs.data_rate_mbps << " n " << n;
      ASSERT_EQ(frame.data_grid.width(), grid.width());
      ASSERT_TRUE(same_points(frame.data_grid.cells(), grid.cells()))
          << mcs.data_rate_mbps << " n " << n;
    }
  }
}

// --- Bit path: receiver -------------------------------------------------------

TEST(CodingKernels, DeinterleaveDepunctureMatchesTwoPasses) {
  Rng rng(113);
  for (const Mcs& mcs : all_mcs()) {
    for (const std::size_t symbols : {0u, 1u, 3u, 25u}) {
      const std::vector<double> llrs =
          special_llrs(rng, symbols * static_cast<std::size_t>(mcs.n_cbps));
      Llrs got = {1.0, 2.0, 3.0};  // resized, not appended
      deinterleave_depuncture_into(llrs, mcs, got);
      std::vector<double> deinterleaved;
      Llrs want;
      bit_reference::decoder_input(llrs, mcs, deinterleaved, want);
      EXPECT_TRUE(same_bits(got, want))
          << mcs.data_rate_mbps << " Mb/s, " << symbols << " symbols";
    }
    Llrs out;
    EXPECT_THROW(deinterleave_depuncture_into(
                     std::vector<double>(static_cast<std::size_t>(mcs.n_cbps) + 1),
                     mcs, out),
                 std::invalid_argument);
  }
}

TEST(CodingKernels, DescramblePsduMatchesRegisterThenPack) {
  Rng rng(114);
  Bytes got = {9, 9, 9};
  for (int s = 1; s < 128; s += 3) {
    const auto seed = static_cast<std::uint8_t>(s);
    for (const std::size_t n : {0u, 1u, 2u, 124u, 125u, 126u, 127u, 128u, 300u,
                                4095u}) {
      const Bits decoded = noisy_bits(
          rng, 16 + 8 * n + static_cast<std::size_t>(rng.uniform_int(0, 30)));
      descramble_psdu_into(decoded, seed, n, got);
      ASSERT_EQ(got, bit_reference::descramble_psdu(decoded, seed, n))
          << "seed " << int{seed} << " n " << n;
    }
  }
  EXPECT_THROW(descramble_psdu_into(Bits(16 + 8 * 3 - 1), 1, 3, got),
               std::invalid_argument);
}

TEST(CodingKernels, PackedOctetsMatchPerBitLoop) {
  Rng rng(115);
  for (std::size_t n = 0; n <= 40; ++n) {
    const Bits bits = noisy_bits(rng, 8 * n);
    EXPECT_EQ(bits_to_bytes(bits), bit_reference::pack_bits(bits)) << n;
  }
}

TEST(CodingKernels, Crc32MatchesBytewiseLoop) {
  Rng rng(116);
  for (std::size_t n = 0; n <= 100; ++n) {
    const Bytes data = rng.bytes(n);
    ASSERT_EQ(crc32(data), bit_reference::crc32(data)) << n;
  }
  for (const std::size_t n : {1499u, 4091u, 4095u}) {
    Bytes frame = rng.bytes(n);
    EXPECT_EQ(crc32(frame), bit_reference::crc32(frame)) << n;
    append_fcs(frame);
    EXPECT_TRUE(check_fcs(frame));
    frame[n / 2] ^= 0x10;
    EXPECT_FALSE(check_fcs(frame));
  }
}

TEST(CodingKernels, DecodeMatchesPerBitTail) {
  // decode_data_symbols on noisy frames of every MCS, with and without
  // EVD erasures: its decoder input, decoded bits, PSDU and CRC verdict
  // equal the per-bit tail's run on the same demapped LLRs.
  Rng rng(117);
  const ViterbiDecoder decoder;
  int decoded_frames = 0;
  for (const Mcs& mcs : all_mcs()) {
    for (const double snr_db : {40.0, 20.0, 12.0}) {
      Bytes psdu = rng.bytes(static_cast<std::size_t>(rng.uniform_int(20, 400)));
      append_fcs(psdu);
      CxVec samples = frame_to_samples(build_frame(psdu, mcs, 0x11));
      const double sigma2 = std::pow(10.0, -snr_db / 10.0);
      for (Cx& x : samples) x += rng.complex_gaussian(sigma2);
      PhyWorkspace ws;
      const FrontEndResult fe = receiver_front_end(samples, ws);
      if (!fe.signal) continue;
      ++decoded_frames;
      SilenceMask mask(fe.data_bins.size(),
                       std::vector<std::uint8_t>(kNumDataSubcarriers, 0));
      for (auto& row : mask) {
        row[static_cast<std::size_t>(rng.uniform_int(0, 47))] = 1;
      }
      for (const SilenceMask* silence : {static_cast<const SilenceMask*>(nullptr),
                                         static_cast<const SilenceMask*>(&mask)}) {
        const DecodeResult got = decode_data_symbols(
            fe, mcs, static_cast<int>(psdu.size()), silence, ws);
        std::vector<double> deinterleaved;
        Llrs mother;
        bit_reference::decoder_input(ws.llrs, mcs, deinterleaved, mother);
        EXPECT_TRUE(same_bits(ws.mother, mother)) << mcs.data_rate_mbps;
        const Bits decoded = decoder.decode_fixed(mother, false);
        EXPECT_EQ(ws.scrambled, decoded) << mcs.data_rate_mbps;
        EXPECT_EQ(count_corrected_bits(decoded, ws.mother),
                  bit_reference::corrected_bits(decoded, mcs.code_rate,
                                                deinterleaved));
        const std::uint8_t seed = Scrambler::recover_seed(decoded);
        EXPECT_EQ(got.scrambler_seed, seed);
        const Bytes want =
            bit_reference::descramble_psdu(decoded, seed, psdu.size());
        EXPECT_EQ(got.psdu, want) << mcs.data_rate_mbps << " at " << snr_db;
        const std::uint32_t fcs = bit_reference::crc32(
            std::span(want).first(want.size() - 4));
        bool fcs_ok = true;
        for (std::size_t i = 0; i < 4; ++i) {
          fcs_ok = fcs_ok && want[want.size() - 4 + i] ==
                                 static_cast<std::uint8_t>(fcs >> (8 * i));
        }
        EXPECT_EQ(got.crc_ok, fcs_ok) << mcs.data_rate_mbps << " at " << snr_db;
      }
    }
  }
  EXPECT_GE(decoded_frames, 16);
}

}  // namespace
}  // namespace silence

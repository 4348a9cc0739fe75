// Coding-chain kernels against the per-bit / per-point code they replace.
//
// The encoder, mapper, row demapper, cached-period scrambler and
// puncturer are table or block kernels; each must equal its reference
// exactly. The references below are the straightforward loops the chain
// ran before (kept here as oracles), and every comparison is exact:
// EXPECT_EQ on bits, memcmp on doubles (so -0.0 and NaN payloads count).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "phy/convolutional.h"
#include "phy/modulation.h"
#include "phy/params.h"
#include "phy/puncture.h"
#include "phy/receiver.h"
#include "phy/scrambler.h"
#include "phy/workspace.h"

namespace silence {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
constexpr Modulation kAllMods[] = {Modulation::kBpsk, Modulation::kQpsk,
                                   Modulation::kQam16, Modulation::kQam64};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- Oracles ---------------------------------------------------------------

Bits oracle_encode(std::span<const std::uint8_t> bits) {
  Bits out;
  int state = 0;
  for (const std::uint8_t bit : bits) {
    const std::uint8_t ab = conv_output(state, bit);
    out.push_back(static_cast<std::uint8_t>(ab & 1U));
    out.push_back(static_cast<std::uint8_t>((ab >> 1) & 1U));
    state = conv_next_state(state, bit);
  }
  return out;
}

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
    EXPECT_EQ(convolutional_encode(input), oracle_encode(input)) << n;
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
    ASSERT_EQ(out, oracle_encode(input)) << "trial " << trial;
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
  // The OBS corrected-bit recount against the branchy loop: re-encode,
  // puncture, count non-erased hard-decision mismatches.
  Rng rng(109);
  PhyWorkspace ws;
  for (const CodeRate rate : {CodeRate::kRate1of2, CodeRate::kRate2of3,
                              CodeRate::kRate3of4}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Bits decoded = rng.bits(6 * static_cast<std::size_t>(
                                            rng.uniform_int(1, 300)));
      const Bits recoded = oracle_puncture(oracle_encode(decoded), rate);
      // Decoder input: shorter, equal or longer than the recode.
      std::vector<double> input(recoded.size() +
                                static_cast<std::size_t>(trial % 3) * 5 - 5);
      for (auto& v : input) {
        switch (rng.uniform_int(0, 5)) {
          case 0: v = 0.0; break;
          case 1: v = -0.0; break;
          case 2: v = kNan; break;
          default: v = rng.gaussian(); break;
        }
      }
      std::uint64_t expected = 0;
      const std::size_t n = std::min(recoded.size(), input.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (input[i] != 0.0 && (input[i] < 0.0 ? 1 : 0) != recoded[i]) {
          ++expected;
        }
      }
      EXPECT_EQ(count_corrected_bits(decoded, rate, input, ws), expected);
      EXPECT_EQ(ws.recoded, recoded);
    }
  }
}

// --- Scrambler and puncturer -------------------------------------------------

TEST(CodingKernels, CachedScramblerMatchesRegisterForEverySeed) {
  Rng rng(107);
  Bits got;
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 126u, 127u, 128u, 135u,
                                300u, 1001u}) {
      Bits plain = rng.bits(n);
      if (n % 3 == 0) {
        for (auto& b : plain) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      Scrambler::apply_with_seed_into(seed, plain, got);
      ASSERT_EQ(got, Scrambler(seed).apply(plain))
          << "seed " << int{seed} << " n " << n;
    }
  }
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

}  // namespace
}  // namespace silence

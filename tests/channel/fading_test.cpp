#include "channel/fading.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <numbers>
#include <numeric>
#include <string>
#include <vector>

#include "channel/fading_kernels.h"
#include "common/db.h"
#include "common/rng.h"

namespace silence {
namespace {

// Oracle: the response and SNR aggregates exactly as fading.cpp computed
// them before the twiddle table and the shared data-bin gain helper —
// sin/cos evaluated per call, and a full response rebuilt on every
// bisection step. The production code must match it to the last bit.
std::array<Cx, kFftSize> oracle_response(std::span<const Cx> taps) {
  std::array<Cx, kFftSize> response{};
  for (int k = 0; k < kFftSize; ++k) {
    Cx acc{0.0, 0.0};
    for (std::size_t l = 0; l < taps.size(); ++l) {
      const double angle = -2.0 * std::numbers::pi * k *
                           static_cast<double>(l) / kFftSize;
      acc += taps[l] * Cx{std::cos(angle), std::sin(angle)};
    }
    response[static_cast<std::size_t>(k)] = acc;
  }
  return response;
}

double oracle_actual_snr_db(std::span<const Cx> taps, double noise_var) {
  const auto response = oracle_response(taps);
  const double n_freq = freq_noise_var(noise_var);
  double sum = 0.0;
  int count = 0;
  for (int bin : data_subcarrier_bins()) {
    sum += std::norm(response[static_cast<std::size_t>(bin)]) / n_freq;
    ++count;
  }
  return linear_to_db(sum / count);
}

double oracle_measured_snr_db(std::span<const Cx> taps, double noise_var) {
  const auto response = oracle_response(taps);
  const double n_freq = freq_noise_var(noise_var);
  double inverse_sum = 0.0;
  int count = 0;
  for (int bin : data_subcarrier_bins()) {
    const double snr =
        std::norm(response[static_cast<std::size_t>(bin)]) / n_freq;
    inverse_sum += 1.0 / std::max(snr, 0.3);
    ++count;
  }
  return linear_to_db(count / inverse_sum);
}

double oracle_noise_var_for_measured_snr(std::span<const Cx> taps,
                                         double measured_snr_db) {
  double lo_db = -80.0, hi_db = 80.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid_db = 0.5 * (lo_db + hi_db);
    const double measured =
        oracle_measured_snr_db(taps, noise_var_for_snr_db(mid_db));
    if (measured > measured_snr_db) {
      hi_db = mid_db;
    } else {
      lo_db = mid_db;
    }
  }
  return noise_var_for_snr_db(0.5 * (lo_db + hi_db));
}

// Oracle: the channel's construction and its advance() exactly as they
// were before steps were split out — J0 on every call, a
// complex_gaussian per tap — and transmit()'s per-sample noise loop.
class OracleChannel {
 public:
  OracleChannel(const MultipathProfile& profile, std::uint64_t seed)
      : profile_(profile), rng_(seed) {
    const auto n = static_cast<std::size_t>(profile_.num_taps);
    std::vector<double> power(n);
    double total = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      power[l] = std::exp(-static_cast<double>(l) / profile_.decay_taps);
      total += power[l];
    }
    for (auto& p : power) p /= total;
    los_.assign(n, Cx{0.0, 0.0});
    scatter_.assign(n, Cx{0.0, 0.0});
    scatter_var_.assign(n, 0.0);
    const bool all_static = profile_.k_all_taps_linear > 0.0;
    const double k0 = profile_.rician_k_linear;
    for (std::size_t l = 0; l < n; ++l) {
      const double k = all_static ? profile_.k_all_taps_linear
                                  : (l == 0 ? k0 : 0.0);
      if (k > 0.0) {
        const double los_power = power[l] * k / (k + 1.0);
        scatter_var_[l] = power[l] / (k + 1.0);
        const double phase = 2.0 * std::numbers::pi * rng_.uniform();
        los_[l] = std::sqrt(los_power) * Cx{std::cos(phase), std::sin(phase)};
      } else {
        scatter_var_[l] = power[l];
      }
      scatter_[l] = rng_.complex_gaussian(scatter_var_[l]);
    }
  }

  void advance(double seconds) {
    if (seconds <= 0.0) return;
    const double x = 2.0 * std::numbers::pi * profile_.doppler_hz * seconds;
    const double rho = std::max(0.0, std::cyl_bessel_j(0.0, x));
    const double innovation = 1.0 - rho * rho;
    for (std::size_t l = 0; l < scatter_.size(); ++l) {
      scatter_[l] = rho * scatter_[l] +
                    rng_.complex_gaussian(innovation * scatter_var_[l]);
    }
  }

  CxVec taps() const {
    CxVec t(los_.size());
    for (std::size_t l = 0; l < t.size(); ++l) t[l] = los_[l] + scatter_[l];
    return t;
  }

 private:
  MultipathProfile profile_;
  Rng rng_;
  CxVec los_, scatter_;
  std::vector<double> scatter_var_;
};

void expect_taps_eq(const FadingChannel& channel, const OracleChannel& oracle,
                    const std::string& where) {
  const CxVec expected = oracle.taps();
  ASSERT_EQ(channel.taps().size(), expected.size()) << where;
  for (std::size_t l = 0; l < expected.size(); ++l) {
    EXPECT_EQ(channel.taps()[l], expected[l]) << where << " tap " << l;
  }
}

// 0 and -1 us draw nothing; 30 ms is past J0's first null at 15 Hz
// (2 pi fd t = 2.83 > 2.405), where rho clamps to 0.
constexpr double kStepSeconds[] = {0.0, -1e-6, 9e-6, 1e-3, 30e-3, 9e-6};

std::vector<MultipathProfile> oracle_profiles() {
  std::vector<MultipathProfile> profiles;
  for (int num_taps = 1; num_taps <= kCpLength; ++num_taps) {
    for (const double k_all : {0.0, 10.0}) {
      MultipathProfile profile;
      profile.num_taps = num_taps;
      profile.k_all_taps_linear = k_all;
      profiles.push_back(profile);
    }
  }
  return profiles;
}

TEST(Fading, AdvanceAndStepAreBitExactAgainstPerCallOracle) {
  for (const MultipathProfile& profile : oracle_profiles()) {
    for (const std::uint64_t seed : {3u, 77u}) {
      FadingChannel by_seconds(profile, seed), by_step(profile, seed);
      OracleChannel oracle(profile, seed);
      for (int pass = 0; pass < 3; ++pass) {
        for (const double seconds : kStepSeconds) {
          const std::string where =
              "taps " + std::to_string(profile.num_taps) + " k_all " +
              std::to_string(profile.k_all_taps_linear) + " seed " +
              std::to_string(seed) + " step " + std::to_string(seconds);
          by_seconds.advance(seconds);
          by_step.advance(by_step.step(seconds));
          oracle.advance(seconds);
          expect_taps_eq(by_seconds, oracle, where);
          expect_taps_eq(by_step, oracle, where);
        }
      }
    }
  }
}

TEST(Fading, StepCoefficients) {
  MultipathProfile profile;
  const FadingChannel channel(profile, 1);
  EXPECT_EQ(channel.step(0.0).num_taps, 0);
  EXPECT_EQ(channel.step(-1e-6).num_taps, 0);
  const FadingStep past_null = channel.step(30e-3);
  EXPECT_EQ(past_null.num_taps, profile.num_taps);
  EXPECT_EQ(past_null.rho, 0.0);
  const FadingStep short_step = channel.step(9e-6);
  EXPECT_GT(short_step.rho, 0.99);
  EXPECT_LT(short_step.rho, 1.0);
  // A log entry per medium stretch stays small (one BSS logs ~1,250).
  static_assert(sizeof(FadingStep) <= 144);
}

// The net engine builds each logged step once, from one member's
// channel, and replays it on every member: channels sharing a profile
// must evolve exactly as if each had built the step itself.
TEST(Fading, SharedStepReplaysLikePerChannelAdvance) {
  for (const MultipathProfile& profile : oracle_profiles()) {
    const FadingChannel builder(profile, 1000);
    FadingChannel a(profile, 5), b(profile, 6);
    OracleChannel oracle_a(profile, 5), oracle_b(profile, 6);
    for (const double seconds : kStepSeconds) {
      const FadingStep shared = builder.step(seconds);
      a.advance(shared);
      b.advance(shared);
      oracle_a.advance(seconds);
      oracle_b.advance(seconds);
      const std::string where = "taps " + std::to_string(profile.num_taps) +
                                " step " + std::to_string(seconds);
      expect_taps_eq(a, oracle_a, where);
      expect_taps_eq(b, oracle_b, where);
    }
  }
}

TEST(Fading, TransmitMatchesPerSampleNoiseLoop) {
  for (const int num_taps : {1, 8, kCpLength}) {
    MultipathProfile profile;
    profile.num_taps = num_taps;
    const FadingChannel channel(profile, 21);
    CxVec samples(333);
    Rng source(4);
    for (Cx& x : samples) x = source.complex_gaussian(1.0);
    for (const bool saved_pending : {false, true}) {
      Rng noise(9), oracle_noise(9);
      if (saved_pending) {
        EXPECT_EQ(noise.gaussian(), oracle_noise.gaussian());
      }
      const double nv = noise_var_for_snr_db(12.0);
      const CxVec out = channel.transmit(samples, nv, noise);
      CxVec expected = channel.apply_multipath(samples);
      for (Cx& x : expected) x += oracle_noise.complex_gaussian(nv);
      ASSERT_EQ(out.size(), expected.size());
      for (std::size_t n = 0; n < out.size(); ++n) {
        ASSERT_EQ(out[n], expected[n]) << "taps " << num_taps << " n " << n;
      }
      EXPECT_EQ(noise.gaussian(), oracle_noise.gaussian());
    }
  }
}

// EXPECT_EQ on doubles, not NEAR: any drift in a last bit would move
// every measured-SNR placement and with it every network result.
TEST(Fading, ResponseAndSnrAreBitExactAgainstPerCallOracle) {
  for (int num_taps = 1; num_taps <= kCpLength; ++num_taps) {
    MultipathProfile profile;
    profile.num_taps = num_taps;
    for (const std::uint64_t seed : {1u, 7u, 1234u}) {
      FadingChannel channel(profile, seed);
      channel.advance(2e-3);  // leave the construction-time realization
      const std::span<const Cx> taps = channel.taps();
      const auto response = channel.frequency_response();
      const auto expected = oracle_response(taps);
      for (std::size_t k = 0; k < response.size(); ++k) {
        ASSERT_EQ(response[k], expected[k])
            << "taps " << num_taps << " seed " << seed << " bin " << k;
      }
      for (int tenth_db = -50; tenth_db <= 400; tenth_db += 45) {
        const double target = 0.1 * tenth_db;
        const double nv = noise_var_for_measured_snr(channel, target);
        EXPECT_EQ(nv, oracle_noise_var_for_measured_snr(taps, target))
            << "taps " << num_taps << " seed " << seed << " target "
            << target;
        EXPECT_EQ(channel.measured_snr_db(nv),
                  oracle_measured_snr_db(taps, nv));
        EXPECT_EQ(channel.actual_snr_db(nv), oracle_actual_snr_db(taps, nv));
      }
    }
  }
}

TEST(Fading, NoiseVarConvention) {
  // At 0 dB mean subcarrier SNR through a unit channel, the per-bin
  // frequency-domain noise power equals the per-bin signal power (1).
  const double nv = noise_var_for_snr_db(0.0);
  EXPECT_DOUBLE_EQ(freq_noise_var(nv), 1.0);
  EXPECT_DOUBLE_EQ(freq_noise_var(noise_var_for_snr_db(10.0)), 0.1);
}

TEST(Fading, TapCountValidation) {
  MultipathProfile profile;
  profile.num_taps = 0;
  EXPECT_THROW(FadingChannel(profile, 1), std::invalid_argument);
  profile.num_taps = kCpLength + 1;
  EXPECT_THROW(FadingChannel(profile, 1), std::invalid_argument);
}

TEST(Fading, AverageTapEnergyIsUnity) {
  MultipathProfile profile;
  double total = 0.0;
  const int realizations = 2000;
  for (int seed = 0; seed < realizations; ++seed) {
    FadingChannel channel(profile, static_cast<std::uint64_t>(seed));
    for (const Cx& tap : channel.taps()) total += std::norm(tap);
  }
  EXPECT_NEAR(total / realizations, 1.0, 0.05);
}

TEST(Fading, DeterministicForSeed) {
  MultipathProfile profile;
  FadingChannel a(profile, 42), b(profile, 42);
  ASSERT_EQ(a.taps().size(), b.taps().size());
  for (std::size_t l = 0; l < a.taps().size(); ++l) {
    EXPECT_EQ(a.taps()[l], b.taps()[l]);
  }
}

TEST(Fading, DifferentSeedsDifferentRealizations) {
  MultipathProfile profile;
  FadingChannel a(profile, 1), b(profile, 2);
  double diff = 0.0;
  for (std::size_t l = 0; l < a.taps().size(); ++l) {
    diff += std::abs(a.taps()[l] - b.taps()[l]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(Fading, FrequencyResponseMatchesTapDft) {
  MultipathProfile profile;
  FadingChannel channel(profile, 7);
  const auto response = channel.frequency_response();
  // Parseval over the 64 bins: sum |H_k|^2 = 64 * sum |h_l|^2.
  double lhs = 0.0;
  for (const Cx& h : response) lhs += std::norm(h);
  double rhs = 0.0;
  for (const Cx& tap : channel.taps()) rhs += std::norm(tap);
  EXPECT_NEAR(lhs, 64.0 * rhs, 1e-9);
}

TEST(Fading, FrequencySelectivityExists) {
  // Multipath must create meaningfully different per-subcarrier gains —
  // the phenomenon CoS exploits (paper Fig. 5).
  MultipathProfile profile;
  FadingChannel channel(profile, 11);
  const auto response = channel.frequency_response();
  double min_gain = 1e9, max_gain = 0.0;
  for (int bin : data_subcarrier_bins()) {
    const double g = std::norm(response[static_cast<std::size_t>(bin)]);
    min_gain = std::min(min_gain, g);
    max_gain = std::max(max_gain, g);
  }
  EXPECT_GT(max_gain / min_gain, 2.0);
}

TEST(Fading, MeasuredSnrBelowActualSnr) {
  // Harmonic mean <= arithmetic mean: the NIC-style estimate is dragged
  // down by faded subcarriers (paper Fig. 2).
  MultipathProfile profile;
  for (int seed = 0; seed < 20; ++seed) {
    FadingChannel channel(profile, static_cast<std::uint64_t>(seed));
    const double nv = noise_var_for_snr_db(15.0);
    EXPECT_LE(channel.measured_snr_db(nv), channel.actual_snr_db(nv) + 1e-9)
        << "seed " << seed;
  }
}

TEST(Fading, MeasuredSnrPinningIsExact) {
  MultipathProfile profile;
  FadingChannel channel(profile, 3);
  for (double target : {5.0, 12.0, 20.0, 25.0}) {
    const double nv = noise_var_for_measured_snr(channel, target);
    EXPECT_NEAR(channel.measured_snr_db(nv), target, 1e-9);
  }
}

TEST(Fading, MultipathConvolutionImpulse) {
  MultipathProfile profile;
  FadingChannel channel(profile, 5);
  CxVec impulse(32, Cx{0.0, 0.0});
  impulse[0] = Cx{1.0, 0.0};
  const CxVec out = channel.apply_multipath(impulse);
  const auto taps = channel.taps();
  for (std::size_t l = 0; l < taps.size(); ++l) {
    EXPECT_NEAR(std::abs(out[l] - taps[l]), 0.0, 1e-12);
  }
  for (std::size_t n = taps.size(); n < 32; ++n) {
    EXPECT_NEAR(std::abs(out[n]), 0.0, 1e-12);
  }
}

TEST(Fading, TransmitAddsCalibratedNoise) {
  MultipathProfile profile;
  profile.num_taps = 1;
  profile.rician_k_linear = 0.0;
  FadingChannel channel(profile, 6);
  Rng rng(8);
  const CxVec zeros(20000, Cx{0.0, 0.0});
  const double nv = 0.37;
  const CxVec out = channel.transmit(zeros, nv, rng);
  double measured = 0.0;
  for (const Cx& x : out) measured += std::norm(x);
  EXPECT_NEAR(measured / static_cast<double>(out.size()), nv, nv * 0.05);
}

TEST(Fading, AdvanceZeroOrNegativeIsNoop) {
  MultipathProfile profile;
  FadingChannel channel(profile, 9);
  const CxVec before(channel.taps().begin(), channel.taps().end());
  channel.advance(0.0);
  channel.advance(-1.0);
  for (std::size_t l = 0; l < before.size(); ++l) {
    EXPECT_EQ(channel.taps()[l], before[l]);
  }
}

TEST(Fading, SmallAdvanceChangesLittleLargeAdvanceDecorrelates) {
  MultipathProfile profile;
  profile.rician_k_linear = 0.0;  // pure Rayleigh for a clean comparison

  const auto corr = [&profile](double dt) {
    double num = 0.0, den = 0.0;
    for (int seed = 0; seed < 400; ++seed) {
      FadingChannel channel(profile, static_cast<std::uint64_t>(seed));
      const CxVec before(channel.taps().begin(), channel.taps().end());
      channel.advance(dt);
      for (std::size_t l = 0; l < before.size(); ++l) {
        num += (std::conj(before[l]) * channel.taps()[l]).real();
        den += std::norm(before[l]);
      }
    }
    return num / den;
  };

  const double short_corr = corr(1e-3);  // 1 ms at 15 Hz Doppler
  const double long_corr = corr(30e-3);  // near the Jakes first null
  EXPECT_GT(short_corr, 0.98);
  EXPECT_LT(long_corr, 0.75);
  EXPECT_GT(short_corr, long_corr);
}

TEST(Fading, ExponentialPowerDelayProfile) {
  MultipathProfile profile;
  profile.rician_k_linear = 0.0;
  std::vector<double> power(static_cast<std::size_t>(profile.num_taps), 0.0);
  const int realizations = 4000;
  for (int seed = 0; seed < realizations; ++seed) {
    FadingChannel channel(profile, static_cast<std::uint64_t>(seed));
    for (std::size_t l = 0; l < power.size(); ++l) {
      power[l] += std::norm(channel.taps()[l]);
    }
  }
  for (std::size_t l = 1; l < power.size(); ++l) {
    EXPECT_LT(power[l], power[l - 1]) << "PDP must decay at tap " << l;
  }
  // Decay constant: power[l+1]/power[l] = exp(-1/decay).
  const double ratio = power[1] / power[0];
  EXPECT_NEAR(ratio, std::exp(-1.0 / profile.decay_taps), 0.05);
}

// The multipath FIR kernel (channel/fading_kernels.h) against the
// tap-outer loop, bit for bit: 1 to 16 taps, every length from 0 to
// taps + 5 and a 1500-octet 24 Mb/s burst's 11,440 samples, over random
// values mixed with signed zeros and subnormals (in the taps, the
// samples, or both).
class FirKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kernel_ == nullptr) GTEST_SKIP() << "no FIR kernel on this CPU";
  }

  const fading_kernels::FirFn kernel_ = fading_kernels::fir_kernel();
};

CxVec fir_values(Rng& rng, std::size_t count, bool specials) {
  const double special[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            4.9e-320,
                            -2.2e-310,
                            DBL_MIN,
                            -DBL_MIN * 0.5};
  CxVec v(count);
  for (Cx& x : v) {
    x = rng.complex_gaussian(1.0);
    if (!specials) continue;
    const double value =
        special[rng.uniform_int(0, std::size(special) - 1)];
    switch (rng.uniform_int(0, 4)) {
      case 0: x.real(value); break;
      case 1: x.imag(value); break;
      case 2: x = Cx{value, -value}; break;
      default: break;
    }
  }
  return v;
}

// Both outputs start as NaN, so a sample either side leaves unwritten
// fails the comparison.
bool fir_matches(fading_kernels::FirFn kernel, const CxVec& taps,
                 const CxVec& in) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CxVec a(in.size(), Cx{nan, nan});
  CxVec b = a;
  kernel(taps.data(), taps.size(), in.data(), in.size(), a.data());
  fading_kernels::fir_tap_outer(taps.data(), taps.size(), in.data(),
                                in.size(), b.data());
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cx)) == 0;
}

TEST_F(FirKernels, MatchesTapOuterLoop) {
  Rng rng(31);
  for (std::size_t num_taps = 1; num_taps <= 16; ++num_taps) {
    std::vector<std::size_t> lengths(num_taps + 6);
    std::iota(lengths.begin(), lengths.end(), std::size_t{0});
    lengths.push_back(11440);
    for (int mix = 0; mix < 4; ++mix) {
      const CxVec taps = fir_values(rng, num_taps, (mix & 1) != 0);
      for (const std::size_t count : lengths) {
        const CxVec in = fir_values(rng, count, (mix & 2) != 0);
        EXPECT_TRUE(fir_matches(kernel_, taps, in))
            << num_taps << " taps, " << count << " samples, mix " << mix;
      }
    }
  }
}

TEST_F(FirKernels, SumsStartAtPositiveZero) {
  // (0 + 0i)(-0 + 0i): every real product is 0*-0 - 0*0 = -0.0, so only
  // a sum that starts at +0.0 ends at +0.0.
  for (std::size_t num_taps = 1; num_taps <= 16; ++num_taps) {
    const CxVec taps(num_taps, Cx{0.0, 0.0});
    const CxVec in(num_taps + 9, Cx{-0.0, 0.0});
    EXPECT_TRUE(fir_matches(kernel_, taps, in)) << num_taps;
    CxVec out(in.size());
    kernel_(taps.data(), taps.size(), in.data(), in.size(), out.data());
    for (const Cx& x : out) {
      EXPECT_FALSE(std::signbit(x.real()));
      EXPECT_FALSE(std::signbit(x.imag()));
    }
  }
}

}  // namespace
}  // namespace silence

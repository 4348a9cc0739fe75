#include "dsp/fft.h"

#include <array>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <numbers>

#include "common/rng.h"
#include "dsp/fft_kernels.h"

namespace silence {
namespace {

TEST(Fft, RejectsNonPowerOfTwo) {
  CxVec data(48, Cx{1.0, 0.0});
  EXPECT_THROW(fft_in_place(data, false), std::invalid_argument);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  CxVec data(64, Cx{0.0, 0.0});
  data[0] = Cx{1.0, 0.0};
  const CxVec spectrum = fft(data);
  for (const Cx& bin : spectrum) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, DcGivesImpulseAtBinZero) {
  CxVec data(64, Cx{1.0, 0.0});
  const CxVec spectrum = fft(data);
  EXPECT_NEAR(spectrum[0].real(), 64.0, 1e-9);
  for (std::size_t k = 1; k < 64; ++k) {
    EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
  }
}

TEST(Fft, SingleToneLandsOnItsBin) {
  const int tone = 5;
  CxVec data(64);
  for (int n = 0; n < 64; ++n) {
    const double angle = 2.0 * std::numbers::pi * tone * n / 64.0;
    data[static_cast<std::size_t>(n)] = Cx{std::cos(angle), std::sin(angle)};
  }
  const CxVec spectrum = fft(data);
  EXPECT_NEAR(std::abs(spectrum[tone]), 64.0, 1e-9);
  for (int k = 0; k < 64; ++k) {
    if (k == tone) continue;
    EXPECT_NEAR(std::abs(spectrum[static_cast<std::size_t>(k)]), 0.0, 1e-8);
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
  Rng rng(GetParam());
  CxVec data(GetParam());
  for (auto& x : data) x = rng.complex_gaussian(1.0);
  const CxVec recovered = ifft(fft(data));
  ASSERT_EQ(recovered.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(recovered[i] - data[i]), 0.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256,
                                           1024));

TEST(Fft, ParsevalHolds) {
  Rng rng(3);
  CxVec data(64);
  for (auto& x : data) x = rng.complex_gaussian(1.0);
  const CxVec spectrum = fft(data);
  // Unnormalized forward transform: sum |X|^2 = N * sum |x|^2.
  EXPECT_NEAR(energy(spectrum), 64.0 * energy(data), 1e-8);
}

TEST(Fft, LinearityHolds) {
  Rng rng(4);
  CxVec a(32), b(32), combo(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = rng.complex_gaussian(1.0);
    b[i] = rng.complex_gaussian(1.0);
    combo[i] = 2.0 * a[i] + Cx{0.0, 3.0} * b[i];
  }
  const CxVec fa = fft(a), fb = fft(b), fc = fft(combo);
  for (std::size_t k = 0; k < 32; ++k) {
    const Cx expected = 2.0 * fa[k] + Cx{0.0, 3.0} * fb[k];
    EXPECT_NEAR(std::abs(fc[k] - expected), 0.0, 1e-9);
  }
}

TEST(Fft, EnergyHelper) {
  const CxVec data = {Cx{3.0, 4.0}, Cx{0.0, 2.0}};
  EXPECT_DOUBLE_EQ(energy(data), 25.0 + 4.0);
}

TEST(Fft, PlanRejectsWrongSize) {
  CxVec data(63);
  EXPECT_THROW(fft_plan(64).forward(data), std::invalid_argument);
  EXPECT_THROW(fft_plan(64).inverse(data), std::invalid_argument);
  EXPECT_THROW(fft_plan(64).run(data, false), std::invalid_argument);
  CxVec longer(65);
  EXPECT_THROW(fft_plan(64).forward(longer), std::invalid_argument);
}

TEST(Fft, CircularShiftIsPhaseRamp) {
  Rng rng(5);
  CxVec data(64);
  for (auto& x : data) x = rng.complex_gaussian(1.0);
  CxVec shifted(64);
  for (std::size_t n = 0; n < 64; ++n) shifted[n] = data[(n + 63) % 64];
  const CxVec f0 = fft(data), f1 = fft(shifted);
  for (int k = 0; k < 64; ++k) {
    const double angle = -2.0 * std::numbers::pi * k / 64.0;
    const Cx ramp{std::cos(angle), std::sin(angle)};
    EXPECT_NEAR(std::abs(f1[static_cast<std::size_t>(k)] -
                         f0[static_cast<std::size_t>(k)] * ramp),
                0.0, 1e-9);
  }
}

// --- The 64-point SIMD kernel against FftPlan::run() ----------------------
//
// Every comparison is on the raw bytes (memcmp), never a tolerance.

using fft_kernels::Fft64Fn;

::testing::AssertionResult same_bits(std::span<const Cx> a,
                                     std::span<const Cx> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Cx)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " differs: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Replays run()'s butterflies on a copy of `input`. With `inline_only`,
// every product is GCC's inline form alone (what the kernel computes);
// otherwise it is std::complex's multiply, which calls __muldc3 when the
// inline form is NaN+iNaN (what run() computes).
struct Replay {
  bool nan_nan_product = false;  // some inline product was NaN+iNaN
  bool nan_output = false;       // some output is NaN
};

Replay replay(std::span<const Cx> input, bool inverse, bool inline_only) {
  const FftPlan& plan = fft_plan(64);
  CxVec d(input.begin(), input.end());
  const auto bitrev = plan.bit_reversal();
  for (std::size_t i = 1; i < 64; ++i) {
    if (i < bitrev[i]) std::swap(d[i], d[bitrev[i]]);
  }
  const auto w_re = plan.twiddle_re(inverse);
  const auto w_im = plan.twiddle_im(inverse);
  Replay r;
  for (std::size_t len = 2; len <= 64; len <<= 1) {
    for (std::size_t i = 0; i < 64; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Cx w(w_re[len / 2 - 1 + j], w_im[len / 2 - 1 + j]);
        const Cx x = d[i + j + len / 2];
        const Cx inline_v(x.real() * w.real() - x.imag() * w.imag(),
                          x.real() * w.imag() + x.imag() * w.real());
        r.nan_nan_product |=
            std::isnan(inline_v.real()) && std::isnan(inline_v.imag());
        const Cx u = d[i + j];
        const Cx v = inline_only ? inline_v : x * w;
        d[i + j] = u + v;
        d[i + j + len / 2] = u - v;
      }
    }
  }
  for (const Cx& y : d) {
    r.nan_output |= std::isnan(y.real()) || std::isnan(y.imag());
  }
  return r;
}

// Runs `kernel` on `input` as FftPlan does (run() when the kernel hands
// the transform back) in a buffer that is not 32-byte aligned, and
// checks it against run(). The kernel must hand back exactly the
// transforms whose inline arithmetic meets a NaN: among them every one
// where run() calls __muldc3, and every NaN input. Returns whether the
// kernel handed back.
bool expect_kernel_matches_oracle(Fft64Fn kernel, std::span<const Cx> input,
                                  bool inverse) {
  const FftPlan& plan = fft_plan(64);
  CxVec oracle(input.begin(), input.end());
  plan.run(oracle, inverse);

  alignas(32) std::array<Cx, 65> storage{};
  const std::span<Cx> data(storage.data() + 1, 64);
  std::copy(input.begin(), input.end(), data.begin());
  const bool handed_back =
      !kernel(data.data(), plan.twiddle_re(inverse).data(),
              plan.twiddle_im(inverse).data(), plan.bit_reversal().data(),
              inverse);
  const char* dir = inverse ? "inverse" : "forward";
  if (handed_back) {
    EXPECT_TRUE(same_bits(data, input)) << dir << ": handed back after writing";
    plan.run(data, inverse);
  }
  EXPECT_EQ(handed_back, replay(input, inverse, true).nan_output) << dir;
  if (replay(input, inverse, false).nan_nan_product) {
    EXPECT_TRUE(handed_back) << dir << ": __muldc3 case";
  }
  bool nan_input = false;
  for (const Cx& x : input) {
    nan_input |= std::isnan(x.real()) || std::isnan(x.imag());
  }
  if (nan_input) {
    EXPECT_TRUE(handed_back) << dir << ": NaN input";
  }
  EXPECT_TRUE(same_bits(data, oracle)) << dir;
  return handed_back;
}

CxVec random_symbol(Rng& rng, double variance) {
  CxVec x(64);
  for (auto& v : x) v = rng.complex_gaussian(variance);
  return x;
}

TEST(Fft, SimdKernelWhereCpuHasAvx2) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(fft_kernels::fft64_kernel() != nullptr,
            __builtin_cpu_supports("avx2") != 0);
#else
  EXPECT_EQ(fft_kernels::fft64_kernel(), nullptr);
#endif
}

// The kernel tests skip on CPUs without the kernel, where run() does
// every transform.
class FftKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kernel_ == nullptr) GTEST_SKIP() << "no 64-point kernel on this CPU";
  }

  const Fft64Fn kernel_ = fft_kernels::fft64_kernel();
};

TEST_F(FftKernels, RandomSymbolsMatchOracle) {
  Rng rng(11);
  for (int t = 0; t < 500; ++t) {
    const double variance = std::ldexp(1.0, (t % 41) - 20);
    const CxVec input = random_symbol(rng, variance);
    for (const bool inverse : {false, true}) {
      EXPECT_FALSE(expect_kernel_matches_oracle(kernel_, input, inverse));
    }
  }
}

TEST_F(FftKernels, StructuredSymbolsMatchOracle) {
  std::vector<CxVec> inputs;
  inputs.emplace_back(64, Cx{0.0, 0.0});
  inputs.emplace_back(64, Cx{-0.0, -0.0});
  inputs.emplace_back(64, Cx{1.0, 0.0});    // DC
  inputs.emplace_back(64, Cx{0.5, -2.0});   // complex DC
  for (std::size_t at : {0u, 1u, 17u, 32u, 63u}) {  // impulses
    CxVec x(64, Cx{0.0, 0.0});
    x[at] = Cx{1.0, 0.0};
    inputs.push_back(x);
    x[at] = Cx{-0.0, 3.0};
    inputs.push_back(x);
  }
  for (const CxVec& input : inputs) {
    for (const bool inverse : {false, true}) {
      EXPECT_FALSE(expect_kernel_matches_oracle(kernel_, input, inverse));
    }
  }
}

// +-0, subnormals, DBL_MAX, 1e308, +-inf and NaN (three payloads) at
// random positions of random symbols. Infinities and overflow reach
// NaN+iNaN products on many of these, which run() recovers through
// __muldc3, so the kernel must hand them back.
TEST_F(FftKernels, SpecialValuesMatchOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  double payload_nan = 0.0;
  const std::uint64_t payload_bits = 0x7ff8'0000'dead'beefULL;
  std::memcpy(&payload_nan, &payload_bits, sizeof payload_nan);
  const std::array<double, 14> specials = {
      0.0,   -0.0,   std::numeric_limits<double>::denorm_min(),
      -4.9e-320,     DBL_MAX, -DBL_MAX, 1e308, -1e308, inf, -inf,
      qnan,  -qnan,  payload_nan, DBL_MIN};
  Rng rng(12);
  int handed_back = 0;
  int muldc3_cases = 0;
  int trials = 0;
  for (int t = 0; t < 3000; ++t) {
    CxVec input = random_symbol(rng, 1.0);
    const int count = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int c = 0; c < count; ++c) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(0, 63));
      const double value = specials[static_cast<std::size_t>(
          rng.uniform_int(0, specials.size() - 1))];
      switch (rng.uniform_int(0, 2)) {
        case 0: input[at].real(value); break;
        case 1: input[at].imag(value); break;
        default: input[at] = Cx{value, value}; break;
      }
    }
    for (const bool inverse : {false, true}) {
      handed_back += expect_kernel_matches_oracle(kernel_, input, inverse);
      muldc3_cases += replay(input, inverse, false).nan_nan_product;
      ++trials;
    }
  }
  // Both paths must have been exercised, __muldc3 cases included.
  EXPECT_GT(handed_back, trials / 10);
  EXPECT_LT(handed_back, trials - trials / 10);
  EXPECT_GT(muldc3_cases, trials / 10);
}

// A NaN input that never enters a product (index 0 stays on the sum side
// of every butterfly) meets the default NaN an inf*0 makes elsewhere:
// which one an addition returns depends on operand order, so this
// transform must be handed back although no product is NaN+iNaN.
TEST_F(FftKernels, NanInputIsHandedBack) {
  double payload_nan = 0.0;
  const std::uint64_t payload_bits = 0x7ff8'0000'0000'1234ULL;
  std::memcpy(&payload_nan, &payload_bits, sizeof payload_nan);
  CxVec input(64, Cx{0.0, 0.0});
  input[0] = Cx{1.0, payload_nan};
  input[32] = Cx{std::numeric_limits<double>::infinity(), 0.0};
  for (const bool inverse : {false, true}) {
    EXPECT_TRUE(expect_kernel_matches_oracle(kernel_, input, inverse));
  }
}

// forward()/inverse() as a whole: the process's kernel, if any, plus its
// hand-back, against run().
TEST(Fft, PlanTransformsMatchRun) {
  const FftPlan& plan = fft_plan(64);
  Rng rng(13);
  for (int t = 0; t < 200; ++t) {
    CxVec input = random_symbol(rng, 1.0);
    if (t % 2 == 1) {
      input[static_cast<std::size_t>(rng.uniform_int(0, 63))] =
          Cx{-std::numeric_limits<double>::infinity(), 1e308};
    }
    for (const bool inverse : {false, true}) {
      CxVec expected = input;
      plan.run(expected, inverse);
      CxVec got = input;
      if (inverse) {
        plan.inverse(got);
      } else {
        plan.forward(got);
      }
      EXPECT_TRUE(same_bits(got, expected)) << "trial " << t;
    }
  }
}

}  // namespace
}  // namespace silence

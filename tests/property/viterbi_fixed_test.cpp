// Fixed-point Viterbi equivalence fuzz suite.
//
// decode_fixed()'s contract (phy/viterbi.h): for any input of at most
// kMaxFixedSteps trellis steps, its output is bit-identical to the exact
// double-precision decode() run on the *quantized* LLRs. These tests fuzz
// that contract across every code rate and puncturing pattern the chain
// uses, erasure-heavy streams (the EVD mechanism: LLR = 0 positions),
// saturation extremes (huge/tiny magnitudes, +-inf, NaN), and both
// terminated and unterminated traceback.
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "phy/convolutional.h"
#include "phy/params.h"
#include "phy/puncture.h"
#include "phy/viterbi.h"
#include "phy/viterbi_kernels.h"

namespace silence {
namespace {

// The reference path: quantize exactly as decode_fixed does, then run the
// exact double kernel on the quantized values.
Bits reference_decode(const ViterbiDecoder& decoder,
                      std::span<const double> llrs, bool terminated) {
  std::vector<std::int16_t> q(llrs.size());
  ViterbiDecoder::quantize_llrs(llrs, q);
  std::vector<double> as_double(q.begin(), q.end());
  return decoder.decode(as_double, terminated);
}

void expect_equivalent(const ViterbiDecoder& decoder,
                       const std::vector<double>& llrs,
                       const std::string& label) {
  for (const bool terminated : {true, false}) {
    const Bits expected = reference_decode(decoder, llrs, terminated);
    const Bits fixed = decoder.decode_fixed(llrs, terminated);
    ASSERT_EQ(fixed, expected)
        << label << " (terminated=" << terminated << ")";
  }
}

// Noisy LLR stream for `info_bits` information bits at code `rate`,
// punctured positions carried as exact zeros (as depuncture_llrs emits).
std::vector<double> chain_llrs(Rng& rng, std::size_t info_bits,
                               CodeRate rate, double erasure_prob) {
  Bits info = rng.bits(info_bits);
  info.insert(info.end(), 6, 0);  // tail
  const Bits mother = convolutional_encode(info);
  const Bits sent = puncture(mother, rate);
  std::vector<double> noisy(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const double clean = sent[i] ? -1.0 : 1.0;
    noisy[i] = 2.0 * clean + rng.gaussian();
    if (rng.uniform() < erasure_prob) noisy[i] = 0.0;  // silenced symbol
  }
  const Llrs full = depuncture_llrs(noisy, rate, mother.size());
  return full;
}

TEST(ViterbiFixedEquivalence, AllRatesRandomNoise) {
  const ViterbiDecoder decoder;
  Rng rng(1);
  const CodeRate rates[] = {CodeRate::kRate1of2, CodeRate::kRate2of3,
                            CodeRate::kRate3of4};
  for (const CodeRate rate : rates) {
    for (int trial = 0; trial < 25; ++trial) {
      // Multiple of 6 keeps every puncturing pattern period-aligned.
      const std::size_t info_bits = 66 + 6 * rng.uniform_int(0, 200);
      const auto llrs = chain_llrs(rng, info_bits, rate, 0.0);
      expect_equivalent(decoder, llrs,
                        "rate=" + std::to_string(static_cast<int>(rate)) +
                            " trial=" + std::to_string(trial));
    }
  }
}

TEST(ViterbiFixedEquivalence, ErasureHeavyStreams) {
  // EVD inputs: large fractions of exact-zero LLRs (silenced subcarriers
  // plus punctured positions) must decode identically.
  const ViterbiDecoder decoder;
  Rng rng(2);
  for (const double erasures : {0.2, 0.5, 0.9}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto llrs = chain_llrs(rng, 510, CodeRate::kRate3of4, erasures);
      expect_equivalent(decoder, llrs,
                        "erasures=" + std::to_string(erasures));
    }
  }
}

TEST(ViterbiFixedEquivalence, AllZeroInput) {
  const ViterbiDecoder decoder;
  const std::vector<double> llrs(2 * 200, 0.0);
  expect_equivalent(decoder, llrs, "all-zero");
}

TEST(ViterbiFixedEquivalence, SaturationExtremes) {
  // Mixed magnitudes spanning ~600 orders: block normalization must keep
  // the big values at +-kQuantMax and flush the tiny ones to zero, both
  // paths agreeing bit for bit.
  const ViterbiDecoder decoder;
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> llrs(2 * 300);
    for (auto& v : llrs) {
      switch (rng.uniform_int(0, 3)) {
        case 0: v = (rng.uniform() - 0.5) * 2e300; break;
        case 1: v = (rng.uniform() - 0.5) * 2e-300; break;
        case 2: v = (rng.uniform() - 0.5) * 8.0; break;
        default: v = 0.0; break;
      }
    }
    expect_equivalent(decoder, llrs, "saturation trial " +
                                         std::to_string(trial));
  }
}

TEST(ViterbiFixedEquivalence, NonFiniteInputs) {
  // quantize_llrs maps NaN -> 0 (erasure) and +-inf -> +-kQuantMax; the
  // fixed path must agree with the reference on such streams too.
  const ViterbiDecoder decoder;
  Rng rng(4);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> llrs(2 * 150);
  for (auto& v : llrs) {
    switch (rng.uniform_int(0, 4)) {
      case 0: v = kInf; break;
      case 1: v = -kInf; break;
      case 2: v = kNan; break;
      default: v = rng.gaussian(); break;
    }
  }
  expect_equivalent(decoder, llrs, "non-finite");
}

TEST(ViterbiFixedEquivalence, QuantizeLlrsProperties) {
  // Zero stays exactly zero (erasures survive quantization) and the block
  // maximum hits exactly +-kQuantMax.
  const std::vector<double> llrs = {0.0, 3.5, -7.0, 0.0, 1.75,
                                    -0.0, 7.0,  -3.5};
  std::vector<std::int16_t> q(llrs.size());
  ViterbiDecoder::quantize_llrs(llrs, q);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[3], 0);
  EXPECT_EQ(q[5], 0);
  EXPECT_EQ(q[2], -ViterbiDecoder::kQuantMax);
  EXPECT_EQ(q[6], ViterbiDecoder::kQuantMax);
  EXPECT_EQ(q[1], (ViterbiDecoder::kQuantMax + 1) / 2);  // 3.5/7 rounded
}

TEST(ViterbiFixedEquivalence, HardDecisionsMatchEncoder) {
  // Clean +-4 LLRs at every rate: both kernels must recover the exact
  // transmitted bits (not just agree with each other).
  const ViterbiDecoder decoder;
  Rng rng(5);
  const CodeRate rates[] = {CodeRate::kRate1of2, CodeRate::kRate2of3,
                            CodeRate::kRate3of4};
  for (const CodeRate rate : rates) {
    Bits info = rng.bits(798);  // +6 tail bits stays period-aligned
    Bits padded = info;
    padded.insert(padded.end(), 6, 0);
    const Bits mother = convolutional_encode(padded);
    const Bits sent = puncture(mother, rate);
    std::vector<double> clean(sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      clean[i] = sent[i] ? -4.0 : 4.0;
    }
    const Llrs full = depuncture_llrs(clean, rate, mother.size());
    const Bits fixed = decoder.decode_fixed(full, true);
    const Bits exact = decoder.decode(full, true);
    ASSERT_EQ(fixed.size(), padded.size());
    for (std::size_t i = 0; i < info.size(); ++i) {
      ASSERT_EQ(fixed[i], info[i]) << "bit " << i;
      ASSERT_EQ(exact[i], info[i]) << "bit " << i;
    }
  }
}

TEST(ViterbiFixedEquivalence, OversizeInputFallsBackToExact) {
  // Past kMaxFixedSteps the fixed path defers to the double kernel, so
  // the outputs must be identical to decode() on the *unquantized* LLRs.
  const ViterbiDecoder decoder;
  Rng rng(6);
  const std::size_t steps = ViterbiDecoder::kMaxFixedSteps + 64;
  std::vector<double> llrs(2 * steps);
  for (auto& v : llrs) v = 2.0 * rng.gaussian();
  EXPECT_EQ(decoder.decode_fixed(llrs, false), decoder.decode(llrs, false));
}

// --- Kernels against their oracles ------------------------------------------
//
// quantize_llrs()'s AVX2 fast path and each compiled add-compare-select
// kernel, reached through phy/viterbi_kernels.h.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// The scalar quantizer loop, kept as the oracle.
std::vector<std::int16_t> oracle_quantize(std::span<const double> llrs) {
  constexpr int kQuantMax = ViterbiDecoder::kQuantMax;
  std::vector<std::int16_t> out(llrs.size());
  double max_abs = 0.0;
  for (const double v : llrs) {
    const double a = std::fabs(v);
    if (std::isfinite(a) && a > max_abs) max_abs = a;
  }
  const double scale = max_abs > 0.0 ? kQuantMax / max_abs : 0.0;
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    const double v = llrs[i];
    int q;
    if (std::isnan(v)) {
      q = 0;
    } else if (!std::isfinite(v)) {
      q = v > 0.0 ? kQuantMax : -kQuantMax;
    } else {
      const double s = v * scale;
      q = static_cast<int>(s + (s >= 0.0 ? 0.5 : -0.5));
      q = std::clamp(q, -kQuantMax, kQuantMax);
    }
    out[i] = static_cast<std::int16_t>(q);
  }
  return out;
}

// Runs the block through quantize_llrs and checks it against the oracle;
// returns whether the fast path accepted it.
bool expect_quantize_matches(const std::vector<double>& llrs,
                             const std::string& label) {
  std::vector<std::int16_t> got(llrs.size(), 1234);
  ViterbiDecoder::quantize_llrs(llrs, got);
  EXPECT_EQ(got, oracle_quantize(llrs)) << label;
  std::vector<std::int16_t> fast(llrs.size(), 1234);
  const bool took_fast = viterbi_kernels::quantize_llrs_finite(llrs, fast);
  if (took_fast) EXPECT_EQ(fast, got) << label;
  return took_fast;
}

// The AVX2 quantizer runs only on CPUs that have AVX2.
const bool kHasFastQuantizer =
    std::string_view(viterbi_kernels::quantize_kernel_name()) != "scalar";

TEST(QuantizeKernel, AllZerosStayZero) {
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 64u}) {
    std::vector<double> llrs(n, 0.0);
    llrs[n / 2] = -0.0;
    EXPECT_EQ(expect_quantize_matches(llrs, "zeros " + std::to_string(n)),
              kHasFastQuantizer);
  }
}

TEST(QuantizeKernel, OverflowingScaleTakesTheScalarLoop) {
  // kQuantMax / max overflows to inf for a subnormal or tiny maximum; the
  // scalar loop then multiplies 0 by inf, and its results are kept.
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> blocks = {
      {kMin, 0.0, -kMin},
      {1e-310, -1e-312, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-311},
      {1e-305, 0.0, -1e-306},
  };
  for (const auto& llrs : blocks) {
    EXPECT_FALSE(expect_quantize_matches(llrs, "tiny max"));
  }
  // Just inside the finite range the fast path takes the block.
  const std::vector<double> small = {1e-304, -3e-305, 0.0, 5e-305};
  EXPECT_EQ(expect_quantize_matches(small, "small max"), kHasFastQuantizer);
}

TEST(QuantizeKernel, HalfwayValuesRoundAwayFromZero) {
  // max |v| = kQuantMax makes the scale exactly 1; 4095.5 makes it 2.
  for (const double max_abs : {8191.0, 4095.5}) {
    std::vector<double> llrs = {max_abs};
    for (int k = 0; k < 40; ++k) {
      for (const double sign : {1.0, -1.0}) {
        const double scaled = sign * (k + 0.5);
        llrs.push_back(scaled / (8191.0 / max_abs));
        llrs.push_back(std::nextafter(llrs.back(), kInf));
        llrs.push_back(std::nextafter(llrs[llrs.size() - 2], -kInf));
      }
    }
    llrs.push_back(-8190.5 / (8191.0 / max_abs));
    EXPECT_EQ(expect_quantize_matches(llrs, "halfway"), kHasFastQuantizer);
  }
}

TEST(QuantizeKernel, BlockMaximumHitsTheClampEdge) {
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const double max_abs =
        std::ldexp(1.0 + rng.uniform(),
                   static_cast<int>(rng.uniform_int(0, 1800)) - 900);
    std::vector<double> llrs(static_cast<std::size_t>(rng.uniform_int(1, 37)));
    for (auto& v : llrs) v = (2.0 * rng.uniform() - 1.0) * max_abs;
    llrs[static_cast<std::size_t>(trial) % llrs.size()] =
        trial % 2 == 0 ? max_abs : -max_abs;
    EXPECT_EQ(expect_quantize_matches(llrs, "edge " + std::to_string(trial)),
              kHasFastQuantizer);
  }
}

TEST(QuantizeKernel, EveryNonFiniteMixTakesTheScalarLoop) {
  Rng rng(22);
  for (const double bad : {kNan, -kNan, kInf, -kInf}) {
    for (std::size_t n = 1; n <= 19; ++n) {
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<double> llrs(n);
        for (auto& v : llrs) v = rng.gaussian();
        llrs[at] = bad;
        EXPECT_FALSE(expect_quantize_matches(
            llrs, "n " + std::to_string(n) + " at " + std::to_string(at)));
      }
    }
  }
  const std::vector<double> mixed = {kInf, -kInf, kNan, 0.0, 1e300, -2.0};
  EXPECT_FALSE(expect_quantize_matches(mixed, "mixed"));
}

TEST(QuantizeKernel, RandomFiniteBlocksMatchAtEveryLength) {
  Rng rng(23);
  for (std::size_t n = 0; n <= 70; ++n) {
    std::vector<double> llrs(n);
    for (auto& v : llrs) {
      v = rng.uniform() < 0.2 ? 0.0 : rng.gaussian() * 7.0;
    }
    const bool fast = expect_quantize_matches(llrs, "n " + std::to_string(n));
    if (n > 0) EXPECT_EQ(fast, kHasFastQuantizer);
  }
}

// Traceback over a kernel's survivors, as decode_fixed runs it.
Bits kernel_decode(const viterbi_kernels::AcsKernel& kernel,
                   std::span<const std::int16_t> q, bool terminated,
                   std::vector<std::uint64_t>& survivors,
                   std::array<std::int32_t, kNumStates>& metric) {
  const std::size_t steps = q.size() / 2;
  metric.fill(viterbi_kernels::kIntFloor);
  metric[0] = 0;
  survivors.assign(steps, 0);
  kernel.run(q.data(), steps, metric.data(), survivors.data());
  int state = 0;
  if (!terminated) {
    for (int s = 1; s < kNumStates; ++s) {
      if (metric[static_cast<std::size_t>(s)] >
          metric[static_cast<std::size_t>(state)]) {
        state = s;
      }
    }
  }
  Bits out(steps);
  for (std::size_t t = steps; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state >> 5);
    state = ((state & 31) << 1) | static_cast<int>((survivors[t] >> state) & 1);
  }
  return out;
}

TEST(AcsKernels, DecodeFixedRunsTheFirstRunnableKernel) {
  const auto kernels = viterbi_kernels::acs_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(&viterbi_kernels::acs_kernel(), &kernels[0]);
  EXPECT_STREQ(kernels.back().name, "generic");
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) EXPECT_STREQ(kernels[0].name, "avx2");
#endif
}

TEST(AcsKernels, EveryKernelMatchesTheExactDecoder) {
  // Each compiled kernel, on quantized LLRs, against decode() on the same
  // values as doubles; survivors and final metrics must also equal the
  // portable kernel's word for word.
  const ViterbiDecoder decoder;
  Rng rng(24);
  std::vector<std::vector<double>> streams;
  const CodeRate rates[] = {CodeRate::kRate1of2, CodeRate::kRate2of3,
                            CodeRate::kRate3of4};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t info_bits = 6 + 6 * rng.uniform_int(0, 150);
    streams.push_back(chain_llrs(rng, info_bits, rates[trial % 3],
                                 trial % 4 == 0 ? 0.6 : 0.0));
  }
  streams.emplace_back(2, 0.0);  // one step
  std::vector<double> extremes(2 * 97);
  for (auto& v : extremes) {
    v = rng.uniform_int(0, 2) == 0 ? (rng.uniform() < 0.5 ? 1e6 : -1e6)
                                   : rng.gaussian();
  }
  streams.push_back(extremes);

  const auto kernels = viterbi_kernels::acs_kernels();
  const viterbi_kernels::AcsKernel& generic = kernels.back();
  for (std::size_t k = 0; k < streams.size(); ++k) {
    const auto& llrs = streams[k];
    std::vector<std::int16_t> q(llrs.size());
    ViterbiDecoder::quantize_llrs(llrs, q);
    const std::vector<double> as_double(q.begin(), q.end());
    for (const bool terminated : {true, false}) {
      std::vector<std::uint64_t> ref_survivors;
      std::array<std::int32_t, kNumStates> ref_metric{};
      const Bits ref_bits =
          kernel_decode(generic, q, terminated, ref_survivors, ref_metric);
      EXPECT_EQ(ref_bits, decoder.decode(as_double, terminated))
          << "stream " << k;
      for (const auto& kernel : kernels) {
        std::vector<std::uint64_t> survivors;
        std::array<std::int32_t, kNumStates> metric{};
        const Bits bits =
            kernel_decode(kernel, q, terminated, survivors, metric);
        EXPECT_EQ(bits, ref_bits) << kernel.name << " stream " << k;
        EXPECT_EQ(survivors, ref_survivors) << kernel.name << " stream " << k;
        EXPECT_EQ(metric, ref_metric) << kernel.name << " stream " << k;
      }
    }
  }
}

TEST(AcsKernels, ZeroStepsTouchNothing) {
  for (const auto& kernel : viterbi_kernels::acs_kernels()) {
    std::array<std::int32_t, kNumStates> metric{};
    for (int s = 0; s < kNumStates; ++s) metric[static_cast<std::size_t>(s)] = s;
    const auto before = metric;
    std::uint64_t survivor = 77;
    kernel.run(nullptr, 0, metric.data(), &survivor);
    EXPECT_EQ(metric, before) << kernel.name;
    EXPECT_EQ(survivor, 77u) << kernel.name;
  }
}

}  // namespace
}  // namespace silence

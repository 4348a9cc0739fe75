#include "common/rng.h"

#include "common/rng_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <numeric>
#include <random>

#include "dsp/fft.h"

namespace silence {
namespace {

// Oracle: the libstdc++ stack Rng reproduces — std::mt19937_64 under
// uniform_real_distribution, normal_distribution and
// uniform_int_distribution, exactly as Rng wrapped them before it
// generated its own stream. Every comparison is on bit patterns, so a
// -0.0 for +0.0 or a last-bit drift fails.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}
  double uniform() { return unit_(engine_); }
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }
  double gaussian() { return normal_(engine_); }
  Cx complex_gaussian(double variance) {
    const double sigma = std::sqrt(variance / 2.0);
    return {sigma * gaussian(), sigma * gaussian()};
  }
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// Bitwise equality of two sample buffers (memcmp needs non-null data).
bool same_bits(const CxVec& a, const CxVec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Cx)) == 0);
}

constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
const std::uint64_t kOracleSeeds[] = {0, 1, 42, kTwo63, kAllOnes};

// A URBG that returns one fixed word, to feed a chosen u to libstdc++'s
// generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kAllOnes; }
  result_type value;
  result_type operator()() { return value; }
};

double std_canonical(std::uint64_t u) {
  FixedWord word{u};
  return std::generate_canonical<double,
                                 std::numeric_limits<double>::digits>(word);
}

TEST(RngOracle, EngineMatchesMt19937_64) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 theirs(seed);
    // The stateless first 156 words, the build at word 156, 15 twists.
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(ours(), theirs()) << "seed " << seed << " draw " << i;
    }
  }
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  static_assert(std::is_same_v<Mt19937_64::result_type,
                               std::mt19937_64::result_type>);
}

TEST(RngOracle, CanonicalConversionEdgeCases) {
  std::vector<std::uint64_t> words = {
      0,
      1,
      (std::uint64_t{1} << 53) - 1,
      std::uint64_t{1} << 53,
      (std::uint64_t{1} << 53) + 1,  // a tie: rounds to even
      (std::uint64_t{1} << 53) + 3,  // a tie: rounds up
      (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32,
      kTwo63 - 1,
      kTwo63,
      kTwo63 + 1,
      kTwo63 + 1024,  // a tie at the top binade: rounds to even
      kTwo63 + 3072,  // a tie: rounds up
      kAllOnes - 2048,  // rounds to the largest double below 2^64
      kAllOnes - 1024,  // the smallest u that rounds to 2^64 ...
      kAllOnes - 1023,  // ... and everything above it: clamped
      kAllOnes - 1,
      kAllOnes,
  };
  // Every power of two and its neighbours.
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t p = std::uint64_t{1} << b;
    words.insert(words.end(), {p - 1, p, p + 1});
  }
  std::mt19937_64 pick(7);
  for (int i = 0; i < 100000; ++i) words.push_back(pick());
  for (const std::uint64_t u : words) {
    ASSERT_EQ(bits_of(Rng::canonical(u)), bits_of(std_canonical(u)))
        << "u " << u;
  }
  // 2^64 - 2^11 is the largest double below 2^64, so the clamp lands on
  // exactly the value the unclamped neighbours already reach.
  EXPECT_EQ(Rng::canonical(kAllOnes), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::canonical(kAllOnes - 1024), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::canonical(kAllOnes - 2047), std::nextafter(1.0, 0.0));
  EXPECT_LT(Rng::canonical(kAllOnes - 3072), std::nextafter(1.0, 0.0));
}

struct At {
  std::uint64_t seed;
  std::size_t call;
};
std::ostream& operator<<(std::ostream& os, const At& at) {
  return os << "seed " << at.seed << " call " << at.call;
}

// A long run of randomly interleaved calls per seed (1.25 M in all),
// each checked against the oracle the moment it returns. Gaussian runs have random,
// often odd, lengths so the saved second value of the polar method
// crosses into complex_gaussian, the bulk fill and the other draws.
TEST(RngOracle, InterleavedCallsMatchLibstdcxx) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng ours(seed);
    StdRng theirs(seed);
    std::mt19937 pick(static_cast<std::uint32_t>(seed ^ (seed >> 32)));
    const auto choose = [&pick](std::uint32_t n) {
      return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(pick);
    };
    CxVec bulk;
    std::size_t calls = 0;
    while (calls < 250000) {
      switch (choose(8)) {
        case 0:
          ASSERT_EQ(bits_of(ours.uniform()), bits_of(theirs.uniform()))
              << At{seed, calls};
          ++calls;
          break;
        case 1: {
          const std::uint32_t run = 1 + choose(7);
          for (std::uint32_t i = 0; i < run; ++i, ++calls) {
            ASSERT_EQ(bits_of(ours.gaussian()), bits_of(theirs.gaussian()))
                << At{seed, calls};
          }
          break;
        }
        case 2: {
          const double variance = 0.01 + 4.0 * choose(1000) / 1000.0;
          const Cx a = ours.complex_gaussian(variance);
          const Cx b = theirs.complex_gaussian(variance);
          ASSERT_EQ(bits_of(a.real()), bits_of(b.real())) << At{seed, calls};
          ASSERT_EQ(bits_of(a.imag()), bits_of(b.imag())) << At{seed, calls};
          ++calls;
          break;
        }
        case 3: {
          std::uint64_t lo = 0, hi = 0;
          switch (choose(4)) {
            case 0: lo = choose(100); hi = lo + choose(100); break;
            case 1: lo = 0; hi = kAllOnes; break;
            case 2: lo = theirs.engine()(); hi = lo; ours.engine()(); break;
            default: {
              const std::uint64_t a = ours.engine()();
              const std::uint64_t b = theirs.engine()();
              ASSERT_EQ(a, b) << At{seed, calls};
              lo = std::min(a, a >> choose(64));
              hi = std::max(a, a >> choose(64));
            }
          }
          ASSERT_EQ(ours.uniform_int(lo, hi), theirs.uniform_int(lo, hi))
              << At{seed, calls};
          ++calls;
          break;
        }
        case 4:
          ASSERT_EQ(ours.engine()(), theirs.engine()()) << At{seed, calls};
          ++calls;
          break;
        case 5: {
          const double variance = 0.5 * (1 + choose(8));
          // Mostly short fills; one in eight runs up to ~6 engine blocks.
          bulk.assign(choose(8) == 0 ? choose(701) : choose(41),
                      Cx{0.25, -0.5});
          CxVec expected = bulk;
          ours.add_complex_gaussian(bulk, variance);
          for (Cx& x : expected) x += theirs.complex_gaussian(variance);
          ASSERT_TRUE(same_bits(bulk, expected)) << At{seed, calls};
          calls += bulk.size() + 1;
          break;
        }
        case 6: {
          const std::size_t count = choose(24);
          const auto a = ours.bits(count);
          std::vector<std::uint8_t> b(count);
          for (auto& bit : b) bit = theirs.engine()() & 1U;
          ASSERT_EQ(a, b) << At{seed, calls};
          calls += count + 1;
          break;
        }
        default: {
          const std::size_t count = choose(24);
          const auto a = ours.bytes(count);
          std::vector<std::uint8_t> b(count);
          for (auto& byte : b) byte = theirs.engine()() & 0xFFU;
          ASSERT_EQ(a, b) << At{seed, calls};
          calls += count + 1;
          break;
        }
      }
    }
  }
}

TEST(RngOracle, ShuffleMatchesLibstdcxx) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng ours(seed);
    std::mt19937_64 theirs(seed);
    for (const std::size_t n : {2u, 48u, 1000u}) {
      std::vector<int> a(n), b(n);
      std::iota(a.begin(), a.end(), 0);
      std::iota(b.begin(), b.end(), 0);
      std::shuffle(a.begin(), a.end(), ours.engine());
      std::shuffle(b.begin(), b.end(), theirs);
      ASSERT_EQ(a, b) << "seed " << seed << " n " << n;
    }
  }
}

TEST(RngOracle, BulkFillEqualsPerSampleLoop) {
  for (const std::uint64_t seed : kOracleSeeds) {
    for (const bool saved_pending : {false, true}) {
      Rng bulk(seed), loop(seed);
      if (saved_pending) {
        ASSERT_EQ(bits_of(bulk.gaussian()), bits_of(loop.gaussian()));
      }
      CxVec a(1001, Cx{1.0, -1.0});
      CxVec b = a;
      bulk.add_complex_gaussian(a, 0.37);
      for (Cx& x : b) x += loop.complex_gaussian(0.37);
      ASSERT_TRUE(same_bits(a, b)) << "seed " << seed;
      bulk.add_complex_gaussian({}, 0.37);  // draws nothing
      ASSERT_EQ(bits_of(bulk.gaussian()), bits_of(loop.gaussian()));
    }
  }
}

// Both AWGN fills (common/rng_kernels.h) against libstdc++, and the staged
// fill against the per-sample loop, on bit patterns: every fill length
// from 0 to 700 samples, starting in the stateless first half-block
// (word 0, and word 100 so that longer fills cross word 156), at odd and
// even block positions (fills that cross a twist with a pair straddling
// the block end, or start on it at word 311), with and without a pending
// saved value, at variance 0.37 and 0 (signed zeros in the buffer).
// After each fill the next draws must agree too: the saved value and the
// engine position a fill leaves behind.
using rng_kernels::FillFn;

void start_streams(std::size_t words, bool saved_pending, Rng& a, Rng& b,
                   StdRng& theirs) {
  for (std::size_t w = 0; w < words; ++w) {
    a.engine()();
    b.engine()();
    theirs.engine()();
  }
  if (saved_pending) {
    a.gaussian();
    b.gaussian();
    theirs.gaussian();
  }
}

CxVec fill_start(std::size_t count, double variance) {
  CxVec v(count);
  for (std::size_t k = 0; k < count; ++k) {
    v[k] = variance == 0.0 ? Cx{k % 3 == 0 ? -0.0 : 0.0, -0.0}
                           : Cx{0.25 * static_cast<double>(k % 7), -0.5};
  }
  return v;
}

// Runs `fill` and the libstdc++ loop side by side over every start and
// length; with `oracle` set, runs it as a third stream and checks it too.
void expect_fill_matches(FillFn fill, FillFn oracle) {
  const std::size_t starts[] = {0, 100, 157, 300, 311, 625};
  for (const std::uint64_t seed : {std::uint64_t{42}, kAllOnes}) {
    for (std::size_t count = 0; count <= 700; ++count) {
      for (const std::size_t words : starts) {
        for (const bool saved_pending : {false, true}) {
          const double variance = (count + words) % 5 == 0 ? 0.0 : 0.37;
          Rng ours(seed), loop(seed);
          StdRng theirs(seed);
          start_streams(words, saved_pending, ours, loop, theirs);
          CxVec a = fill_start(count, variance);
          CxVec b = a;
          CxVec c = a;
          fill(ours, a, variance);
          for (Cx& x : c) x += theirs.complex_gaussian(variance);
          ASSERT_TRUE(same_bits(a, c))
              << "seed " << seed << " count " << count << " words " << words
              << " saved " << saved_pending;
          if (oracle != nullptr) {
            oracle(loop, b, variance);
            ASSERT_TRUE(same_bits(a, b)) << "count " << count;
          }
          for (int k = 0; k < 3; ++k) {
            const double g = theirs.gaussian();
            ASSERT_EQ(bits_of(ours.gaussian()), bits_of(g)) << count;
            if (oracle != nullptr) {
              ASSERT_EQ(bits_of(loop.gaussian()), bits_of(g)) << count;
            }
          }
          ASSERT_EQ(ours.engine()(), theirs.engine()()) << count;
        }
      }
    }
  }
}

TEST(RngOracle, PerSampleFillMatchesLibstdcxx) {
  expect_fill_matches(rng_kernels::per_sample_fill, nullptr);
}

class RngKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (staged_ == nullptr) GTEST_SKIP() << "no staged fill on this CPU";
  }

  const FillFn staged_ = rng_kernels::staged_fill();
};

TEST_F(RngKernels, StagedFillMatchesPerSampleLoopAndLibstdcxx) {
  expect_fill_matches(staged_, rng_kernels::per_sample_fill);
}

// Copies taken before the first draw, in the stateless first half-block,
// right at and after the state is built, and with a saved Gaussian
// pending, continue exactly like the original.
TEST(RngOracle, CopiesContinueIdentically) {
  for (const std::uint64_t seed : kOracleSeeds) {
    for (const int words : {0, 1, 155, 156, 157, 400}) {
      for (const bool saved_pending : {false, true}) {
        Rng original(seed);
        for (int i = 0; i < words; ++i) original.engine()();
        if (saved_pending) original.gaussian();
        const Rng copy(original);
        Rng assigned(seed + 1);
        assigned.gaussian();
        assigned = original;
        Rng moved_from(original);
        const Rng moved(std::move(moved_from));
        Rng a = copy, b = assigned, c = moved;
        for (int i = 0; i < 1000; ++i) {  // crosses the build and a twist
          const double g = original.gaussian();
          ASSERT_EQ(bits_of(g), bits_of(a.gaussian())) << words << " " << i;
          ASSERT_EQ(bits_of(g), bits_of(b.gaussian())) << words << " " << i;
          ASSERT_EQ(bits_of(g), bits_of(c.gaussian())) << words << " " << i;
        }
      }
    }
  }
}

TEST(RngOracle, EngineStateStaysOffTheObject) {
  // The 2.5 KB engine state lives behind a pointer, built only past the
  // first half-block (tests/perf/alloc_count_test.cpp counts it); an Rng
  // itself is a few words.
  static_assert(sizeof(Rng) <= 64);
  EXPECT_LE(sizeof(Rng), 64u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.engine()() == b.engine()()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 17);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 17u);
  }
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(7);
  const double target = 2.5;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += std::norm(rng.complex_gaussian(target));
  }
  EXPECT_NEAR(sum / n, target, 0.1);
}

TEST(Rng, ComplexGaussianZeroMean) {
  Rng rng(8);
  Cx sum{0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.complex_gaussian(1.0);
  EXPECT_NEAR(std::abs(sum) / n, 0.0, 0.02);
}

TEST(Rng, BitsAreBinaryAndBalanced) {
  Rng rng(9);
  const auto bits = rng.bits(10000);
  std::size_t ones = 0;
  for (auto b : bits) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  EXPECT_NEAR(static_cast<double>(ones) / bits.size(), 0.5, 0.03);
}

TEST(Rng, GaussianMoments) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

}  // namespace
}  // namespace silence

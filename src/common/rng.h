// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from an explicitly
// seeded Rng so that experiments and tests are reproducible bit-for-bit.
//
// Rng is the one place the tree generates randomness, and its stream is
// libstdc++'s, bit for bit: the engine is std::mt19937_64, uniform() is
// uniform_real_distribution<double>(0, 1), gaussian() is
// normal_distribution<double> (Marsaglia polar method, second value
// saved), and uniform_int() runs std::uniform_int_distribution over the
// engine. The implementation is in-tree only for speed and memory: a
// branch-free twist and uint64 -> double conversion, the polar method
// inlined, a staged SIMD AWGN fill on AVX2 CPUs (common/rng_kernels.h),
// and a 2.5 KB engine state that a stream builds only once it has drawn
// half a block (156 words). Until then an Rng is a few words, so the many
// streams that draw little (a station's backoff, a channel that is never
// advanced) never allocate.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <vector>

namespace silence {

namespace rng_kernels {
struct Access;  // common/rng_kernels.h
}

// MT19937-64 (Matsumoto & Nishimura), word for word std::mt19937_64: the
// same seeding, twist and tempering, and the same min/max/result_type, so
// standard distributions and std::shuffle draw identically over it.
//
// The first 156 words need no state: word k of the first block is
// x[k + 156] ^ twist(x[k], x[k + 1]) over the seeded words x alone, so
// two words of x, stepped along the seeding recurrence, produce it. The
// 312-word state is built (seeded and twisted) for word 156 onwards.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) : seed_(seed) {}
  Mt19937_64(const Mt19937_64& other);
  Mt19937_64& operator=(const Mt19937_64& other);
  Mt19937_64(Mt19937_64&&) noexcept = default;
  Mt19937_64& operator=(Mt19937_64&&) noexcept = default;

  result_type operator()() {
    if (!state_) [[unlikely]] return temper(stateless_word());
    if (pos_ >= kStateWords) twist();
    return temper((*state_)[pos_++]);
  }

  // The output transform of one state word.
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  // Rng's staged AWGN fill reads the untempered block in place and
  // advances pos_ past the words it used.
  friend class Rng;

  static constexpr std::size_t kStateWords = 312;
  static constexpr std::size_t kShift = 156;
  using State = std::array<result_type, kStateWords>;

  result_type stateless_word();
  void twist();

  std::unique_ptr<State> state_;  // null for the first kShift words
  std::size_t pos_ = 0;           // next word: in the block, or drawn
  result_type seed_;
  result_type low_ = 0;   // seeded x[pos_], before the state is built
  result_type high_ = 0;  // seeded x[pos_ + kShift]
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform in [0, 1).
  double uniform() { return canonical(engine()()); }

  // Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine());
  }

  // Standard normal.
  double gaussian() { return polar_gaussian(engine()); }

  // Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  std::complex<double> complex_gaussian(double variance) {
    const double sigma = std::sqrt(variance / 2.0);
    return {sigma * gaussian(), sigma * gaussian()};
  }

  // Adds complex_gaussian(variance) to every sample, in order: the same
  // draws, sums and engine words as the per-sample loop, with sigma
  // computed once. On AVX2 CPUs a staged fill does the work
  // (common/rng_kernels.h).
  void add_complex_gaussian(std::span<std::complex<double>> samples,
                            double variance);

  // `count` random bits.
  std::vector<std::uint8_t> bits(std::size_t count);

  // `count` random bytes.
  std::vector<std::uint8_t> bytes(std::size_t count);

  Mt19937_64& engine() { return engine_; }

  // u / 2^64 rounded once, clamped below 1: generate_canonical<double,
  // 53> over a 64-bit engine. u converts as two exact 32-bit halves and
  // one rounding (no sign-test branch), and the clamp catches the u that
  // round to 2^64.
  static double canonical(std::uint64_t u) {
    const double d =
        static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::uint32_t>(u));
    return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
  }

 private:
  friend struct rng_kernels::Access;

  // The staged fill: defined on x86 only, run only on AVX2 CPUs.
  void add_complex_gaussian_staged(std::span<std::complex<double>> samples,
                                   double variance);

  // normal_distribution<double>'s polar method, including its saved
  // second value and the trailing `* stddev + mean` that maps -0.0 to
  // +0.0.
  double polar_gaussian(Mt19937_64& gen) {
    double ret;
    if (saved_available_) {
      saved_available_ = false;
      ret = saved_;
    } else {
      double x, y, r2;
      do {
        x = 2.0 * canonical(gen()) - 1.0;
        y = 2.0 * canonical(gen()) - 1.0;
        r2 = x * x + y * y;
      } while (r2 > 1.0 || r2 == 0.0);
      const double mult = std::sqrt(-2 * std::log(r2) / r2);
      saved_ = x * mult;
      saved_available_ = true;
      ret = y * mult;
    }
    return ret * 1.0 + 0.0;
  }

  Mt19937_64 engine_;
  double saved_ = 0.0;
  bool saved_available_ = false;
};

}  // namespace silence

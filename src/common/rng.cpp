#include "common/rng.h"

#include "common/rng_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace silence {

namespace {

using Word = Mt19937_64::result_type;

// The seeding recurrence: x[i] from x[i - 1].
Word seed_step(Word prev, std::size_t i) {
  return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
}

// One twisted word. (0 - (y & 1)) & A is libstdc++'s (y & 1) ? A : 0
// without the branch, which would mispredict on half the words.
Word mix(Word word, Word next, Word far) {
  constexpr Word kMatrixA = 0xb5026f5aa96619e9ULL;
  constexpr Word kUpper = ~Word{0} << 31;
  const Word y = (word & kUpper) | (next & ~kUpper);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(const Mt19937_64& other)
    : state_(other.state_ ? std::make_unique<State>(*other.state_) : nullptr),
      pos_(other.pos_),
      seed_(other.seed_),
      low_(other.low_),
      high_(other.high_) {}

Mt19937_64& Mt19937_64::operator=(const Mt19937_64& other) {
  if (this != &other) *this = Mt19937_64(other);
  return *this;
}

Mt19937_64::result_type Mt19937_64::stateless_word() {
  if (pos_ == kShift) {
    // Word 156 onwards reads the twisted first half: build the state.
    state_ = std::make_unique<State>();
    State& x = *state_;
    x[0] = seed_;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      x[i] = seed_step(x[i - 1], i);
    }
    twist();
    pos_ = kShift;
    return x[pos_++];
  }
  if (pos_ == 0) {
    low_ = high_ = seed_;
    for (std::size_t i = 1; i <= kShift; ++i) high_ = seed_step(high_, i);
  }
  const result_type next = seed_step(low_, pos_ + 1);
  const result_type word = mix(low_, next, high_);
  low_ = next;
  high_ = seed_step(high_, pos_ + kShift + 1);
  ++pos_;
  return word;
}

void Mt19937_64::twist() {
  State& x = *state_;
  std::size_t k = 0;
  for (; k < kStateWords - kShift; ++k) {
    x[k] = mix(x[k], x[k + 1], x[k + kShift]);
  }
  for (; k < kStateWords - 1; ++k) {
    x[k] = mix(x[k], x[k + 1], x[k + kShift - kStateWords]);
  }
  x[k] = mix(x[k], x[0], x[kShift - 1]);
  pos_ = 0;
}

#if defined(__x86_64__) || defined(__i386__)
namespace {

// One polar coordinate, 2u - 1, from an untempered word.
double polar_unit(Word word) {
  return 2.0 * Rng::canonical(Mt19937_64::temper(word)) - 1.0;
}

__attribute__((target("avx2"), always_inline)) inline __m256i broadcast(
    Word w) {
  return _mm256_set1_epi64x(static_cast<long long>(w));
}

// polar_unit() of four consecutive words: the tempering shifts, then the
// two 32-bit halves converted exactly (a half ORed into the mantissa of
// 2^52, minus 2^52), combined with one rounding, scaled and clamped.
__attribute__((target("avx2"), always_inline)) inline __m256d polar_unit256(
    const Word* words) {
  __m256i z = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29),
                                           broadcast(0x5555555555555555)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17),
                                           broadcast(0x71d67fffeda60000)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37),
                                           broadcast(0xfff7eee000000000)));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
  const __m256i two52_bits = broadcast(0x4330000000000000);
  const __m256d two52 = _mm256_set1_pd(0x1p52);
  const __m256i hi_bits = _mm256_or_si256(_mm256_srli_epi64(z, 32), two52_bits);
  const __m256i lo_bits = _mm256_blend_epi32(z, two52_bits, 0xAA);
  const __m256d hi = _mm256_sub_pd(_mm256_castsi256_pd(hi_bits), two52);
  const __m256d lo = _mm256_sub_pd(_mm256_castsi256_pd(lo_bits), two52);
  const __m256d d =
      _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1p32)), lo);
  const __m256d u = _mm256_min_pd(_mm256_mul_pd(d, _mm256_set1_pd(0x1p-64)),
                                  _mm256_set1_pd(0x1.fffffffffffffp-1));
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), u),
                       _mm256_set1_pd(1.0));
}

// Left-pack permutations: for each 4-bit accept mask, the 32-bit lane
// indices that move the accepted doubles to the front, in order.
struct alignas(32) PackTable {
  std::int32_t index[16][8];
};

constexpr PackTable make_pack_table() {
  PackTable t{};
  for (int mask = 0; mask < 16; ++mask) {
    int to = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) {
        t.index[mask][2 * to] = 2 * lane;
        t.index[mask][2 * to + 1] = 2 * lane + 1;
        ++to;
      }
    }
  }
  return t;
}

constexpr PackTable kPack = make_pack_table();

__attribute__((target("avx2"), always_inline)) inline void store_packed(
    double* to, __m256d v, __m256i index) {
  _mm256_storeu_pd(to, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                           _mm256_castpd_ps(v), index)));
}

constexpr std::size_t kBlockPairs = 156;  // candidate pairs in a block

// Stage 1: the polar method's accept loop over the candidate pairs
// (words[2c], words[2c + 1]), c < pairs. Keeps the accepted (x, y, r2) in
// order until `want` are kept, sets *used to the pairs that took (all of
// them when fewer were accepted) and returns the count kept. The output
// arrays need room for `pairs` entries (a packed store writes four).
__attribute__((target("avx2"))) std::size_t polar_accept_avx2(
    const Word* words, std::size_t pairs, std::size_t want, double* x,
    double* y, double* r2, std::size_t* used) {
  std::size_t kept = 0;
  std::size_t c = 0;
  for (; c + 4 <= pairs; c += 4) {
    const __m256d a = polar_unit256(words + 2 * c);      // x0 y0 x1 y1
    const __m256d b = polar_unit256(words + 2 * c + 4);  // x2 y2 x3 y3
    // unpacklo/unpackhi give x0 x2 x1 x3 and y0 y2 y1 y3.
    const __m256d xs = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xD8);
    const __m256d ys = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xD8);
    const __m256d rr =
        _mm256_add_pd(_mm256_mul_pd(xs, xs), _mm256_mul_pd(ys, ys));
    const int mask = _mm256_movemask_pd(_mm256_and_pd(
        _mm256_cmp_pd(rr, _mm256_set1_pd(1.0), _CMP_LE_OQ),
        _mm256_cmp_pd(rr, _mm256_setzero_pd(), _CMP_NEQ_OQ)));
    const __m256i index = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPack.index[mask]));
    store_packed(x + kept, xs, index);
    store_packed(y + kept, ys, index);
    store_packed(r2 + kept, rr, index);
    const auto k = static_cast<std::size_t>(__builtin_popcount(mask));
    if (kept + k >= want) {
      // The pair that completes the fill: the (want - kept)-th accepted.
      std::size_t lane = 0;
      for (std::size_t left = want - kept;; ++lane) {
        if (((mask >> lane) & 1) != 0 && --left == 0) break;
      }
      *used = c + lane + 1;
      _mm256_zeroupper();
      return want;
    }
    kept += k;
  }
  for (; c < pairs; ++c) {
    const double xv = polar_unit(words[2 * c]);
    const double yv = polar_unit(words[2 * c + 1]);
    const double rv = xv * xv + yv * yv;
    if (rv > 1.0 || rv == 0.0) continue;
    x[kept] = xv;
    y[kept] = yv;
    r2[kept] = rv;
    if (++kept == want) {
      *used = c + 1;
      _mm256_zeroupper();
      return want;
    }
  }
  *used = pairs;
  _mm256_zeroupper();
  return kept;
}

// sigma * (v * mult * 1.0 + 0.0): polar_gaussian()'s value, times sigma.
__attribute__((target("avx2"), always_inline)) inline __m256d scaled_value(
    __m256d sigma, __m256d v, __m256d mult) {
  return _mm256_mul_pd(
      sigma, _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(v, mult),
                                         _mm256_set1_pd(1.0)),
                           _mm256_setzero_pd()));
}

// Stage 3: adds sigma * (y*mult * 1.0 + 0.0), then sigma * (x*mult * 1.0
// + 0.0), to out[2j] and out[2j + 1], mult = sqrt(-2 * log_r2 / r2).
__attribute__((target("avx2"))) void polar_values_avx2(
    const double* x, const double* y, const double* r2, const double* log_r2,
    std::size_t count, double sigma, double* out) {
  const __m256d s = _mm256_set1_pd(sigma);
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256d mult = _mm256_sqrt_pd(_mm256_div_pd(
        _mm256_mul_pd(_mm256_set1_pd(-2.0), _mm256_loadu_pd(log_r2 + j)),
        _mm256_loadu_pd(r2 + j)));
    const __m256d ys = scaled_value(s, _mm256_loadu_pd(y + j), mult);
    const __m256d xs = scaled_value(s, _mm256_loadu_pd(x + j), mult);
    const __m256d lo = _mm256_unpacklo_pd(ys, xs);  // y0 x0 y2 x2
    const __m256d hi = _mm256_unpackhi_pd(ys, xs);  // y1 x1 y3 x3
    const __m256d first = _mm256_permute2f128_pd(lo, hi, 0x20);
    const __m256d second = _mm256_permute2f128_pd(lo, hi, 0x31);
    double* o = out + 2 * j;
    _mm256_storeu_pd(o, _mm256_add_pd(_mm256_loadu_pd(o), first));
    _mm256_storeu_pd(o + 4, _mm256_add_pd(_mm256_loadu_pd(o + 4), second));
  }
  for (; j < count; ++j) {
    const double mult = std::sqrt(-2 * log_r2[j] / r2[j]);
    out[2 * j] += sigma * (y[j] * mult * 1.0 + 0.0);
    out[2 * j + 1] += sigma * (x[j] * mult * 1.0 + 0.0);
  }
  _mm256_zeroupper();
}

}  // namespace

void Rng::add_complex_gaussian_staged(std::span<std::complex<double>> samples,
                                      double variance) {
  if (samples.empty()) return;
  const double sigma = std::sqrt(variance / 2.0);
  double* out = reinterpret_cast<double*>(samples.data());
  const std::size_t count = 2 * samples.size();
  Mt19937_64& gen = engine_;
  alignas(32) double x[kBlockPairs];
  alignas(32) double y[kBlockPairs];
  alignas(32) double r2[kBlockPairs];
  alignas(32) double log_r2[kBlockPairs];
  std::size_t i = 0;
  while (i < count) {
    // A pending saved value, the stateless first half-block and a pair
    // that straddles the block end (one word left) go one value at a time.
    if (saved_available_ || !gen.state_ ||
        gen.pos_ == Mt19937_64::kStateWords - 1) {
      out[i++] += sigma * polar_gaussian(gen);
      continue;
    }
    if (gen.pos_ == Mt19937_64::kStateWords) gen.twist();
    const std::size_t want = (count - i + 1) / 2;
    std::size_t used = 0;
    const std::size_t kept = polar_accept_avx2(
        gen.state_->data() + gen.pos_, (Mt19937_64::kStateWords - gen.pos_) / 2,
        want, x, y, r2, &used);
    gen.pos_ += 2 * used;
    for (std::size_t j = 0; j < kept; ++j) log_r2[j] = std::log(r2[j]);
    const std::size_t whole = std::min(kept, (count - i) / 2);
    polar_values_avx2(x, y, r2, log_r2, whole, sigma, out + i);
    i += 2 * whole;
    if (whole < kept) {
      // The fill ends on this pair's first value; its second is saved.
      const double mult = std::sqrt(-2 * log_r2[whole] / r2[whole]);
      saved_ = x[whole] * mult;
      saved_available_ = true;
      out[i++] += sigma * (y[whole] * mult * 1.0 + 0.0);
    }
  }
}

namespace rng_kernels {

struct Access {
  static void staged(Rng& rng, std::span<std::complex<double>> samples,
                     double variance) {
    rng.add_complex_gaussian_staged(samples, variance);
  }
};

}  // namespace rng_kernels
#endif

namespace rng_kernels {

FillFn staged_fill() {
#if defined(__x86_64__) || defined(__i386__)
  static const FillFn fill = [] {
    // Idempotent; makes the check safe even from a static initializer.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? &Access::staged : nullptr;
  }();
  return fill;
#else
  return nullptr;
#endif
}

void per_sample_fill(Rng& rng, std::span<std::complex<double>> samples,
                     double variance) {
  if (samples.empty()) return;
  const double sigma = std::sqrt(variance / 2.0);
  for (std::complex<double>& x : samples) {
    const double re = sigma * rng.gaussian();
    const double im = sigma * rng.gaussian();
    x += std::complex<double>{re, im};
  }
}

}  // namespace rng_kernels

void Rng::add_complex_gaussian(std::span<std::complex<double>> samples,
                               double variance) {
  if (const rng_kernels::FillFn staged = rng_kernels::staged_fill()) {
    staged(*this, samples, variance);
  } else {
    rng_kernels::per_sample_fill(*this, samples, variance);
  }
}

std::vector<std::uint8_t> Rng::bits(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(engine()() & 1U);
  return out;
}

std::vector<std::uint8_t> Rng::bytes(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(engine()() & 0xFFU);
  return out;
}

}  // namespace silence

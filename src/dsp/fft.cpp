#include "dsp/fft.h"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <numbers>
#include <stdexcept>

#include "dsp/fft_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace silence {
namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

constexpr std::size_t kN = 64;

#if defined(__x86_64__) || defined(__i386__)
// Gathers `data` in the order run()'s swap loop leaves it (the bit
// reversal is an involution) into split arrays, storing each block of 8
// elements as its even elements, then its odd ones: the tops of the
// first stage's butterflies, then their bottoms. A block is two vectors,
// so the first stage runs on whole vectors.
inline void gather_bit_reversed(const Cx* data, const std::uint32_t* bitrev,
                                double* re, double* im) {
  for (std::size_t b = 0; b < kN; b += 8) {
    for (std::size_t m = 0; m < 8; ++m) {
      const std::size_t from = m < 4 ? 2 * m : 2 * m - 7;
      const Cx& x = data[bitrev[b + from]];
      re[b + m] = x.real();
      im[b + m] = x.imag();
    }
  }
}

// u + x*w and u - x*w over four butterflies, where the product is GCC's
// inline complex multiply.
struct Butterfly256 {
  __m256d top_re, top_im, bot_re, bot_im;
};

__attribute__((target("avx2"), always_inline)) inline Butterfly256
butterfly256(__m256d ur, __m256d ui, __m256d xr, __m256d xi, __m256d wr,
             __m256d wi) {
  const __m256d vr =
      _mm256_sub_pd(_mm256_mul_pd(xr, wr), _mm256_mul_pd(xi, wi));
  const __m256d vi =
      _mm256_add_pd(_mm256_mul_pd(xr, wi), _mm256_mul_pd(xi, wr));
  return {_mm256_add_pd(ur, vr), _mm256_add_pd(ui, vi),
          _mm256_sub_pd(ur, vr), _mm256_sub_pd(ui, vi)};
}

__attribute__((target("avx2"))) bool fft64_avx2(Cx* data, const double* w_re,
                                                const double* w_im,
                                                const std::uint32_t* bitrev,
                                                bool inverse) {
  alignas(32) double re[kN];
  alignas(32) double im[kN];
  gather_bit_reversed(data, bitrev, re, im);

  // The first three stages stay in registers, one block of 8 at a time.
  const __m256d w0r = _mm256_set1_pd(w_re[0]);
  const __m256d w0i = _mm256_set1_pd(w_im[0]);
  const __m256d w1r = _mm256_setr_pd(w_re[1], w_re[2], w_re[1], w_re[2]);
  const __m256d w1i = _mm256_setr_pd(w_im[1], w_im[2], w_im[1], w_im[2]);
  const __m256d w3r = _mm256_loadu_pd(w_re + 3);
  const __m256d w3i = _mm256_loadu_pd(w_im + 3);
  for (std::size_t b = 0; b < kN; b += 8) {
    // len = 2: tops (e0 e2 e4 e6) against bottoms (e1 e3 e5 e7).
    const Butterfly256 s1 = butterfly256(
        _mm256_load_pd(re + b), _mm256_load_pd(im + b),
        _mm256_load_pd(re + b + 4), _mm256_load_pd(im + b + 4), w0r, w0i);
    // len = 4: s1 holds (p0 p2 p4 p6) and (p1 p3 p5 p7), so
    // unpacklo/unpackhi pair (p0 p1 p4 p5) with (p2 p3 p6 p7) under
    // twiddles 1 2 1 2.
    const Butterfly256 s2 = butterfly256(
        _mm256_unpacklo_pd(s1.top_re, s1.bot_re),
        _mm256_unpacklo_pd(s1.top_im, s1.bot_im),
        _mm256_unpackhi_pd(s1.top_re, s1.bot_re),
        _mm256_unpackhi_pd(s1.top_im, s1.bot_im), w1r, w1i);
    // len = 8: s2 holds (q0 q1 | q4 q5) and (q2 q3 | q6 q7), so
    // permute2f128 pairs (q0 q1 q2 q3) with (q4 q5 q6 q7), twiddles 3-6.
    const Butterfly256 s3 = butterfly256(
        _mm256_permute2f128_pd(s2.top_re, s2.bot_re, 0x20),
        _mm256_permute2f128_pd(s2.top_im, s2.bot_im, 0x20),
        _mm256_permute2f128_pd(s2.top_re, s2.bot_re, 0x31),
        _mm256_permute2f128_pd(s2.top_im, s2.bot_im, 0x31), w3r, w3i);
    _mm256_store_pd(re + b, s3.top_re);
    _mm256_store_pd(im + b, s3.top_im);
    _mm256_store_pd(re + b + 4, s3.bot_re);
    _mm256_store_pd(im + b + 4, s3.bot_im);
  }
  for (std::size_t len = 16; len <= kN; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = w_re + half - 1;
    const double* wi = w_im + half - 1;
    for (std::size_t i = 0; i < kN; i += len) {
      for (std::size_t j = 0; j < half; j += 4) {
        double* tr = re + i + j;
        double* ti = im + i + j;
        const Butterfly256 b = butterfly256(
            _mm256_load_pd(tr), _mm256_load_pd(ti), _mm256_load_pd(tr + half),
            _mm256_load_pd(ti + half), _mm256_loadu_pd(wr + j),
            _mm256_loadu_pd(wi + j));
        _mm256_store_pd(tr, b.top_re);
        _mm256_store_pd(ti, b.top_im);
        _mm256_store_pd(tr + half, b.bot_re);
        _mm256_store_pd(ti + half, b.bot_im);
      }
    }
  }

  // Any NaN in the transform reaches an output (see fft_kernels.h).
  __m256d nan = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kN; k += 4) {
    nan = _mm256_or_pd(nan, _mm256_cmp_pd(_mm256_load_pd(re + k),
                                          _mm256_load_pd(im + k),
                                          _CMP_UNORD_Q));
  }
  if (_mm256_movemask_pd(nan) != 0) {
    _mm256_zeroupper();
    return false;
  }

  double* out = reinterpret_cast<double*>(data);
  const __m256d scale = _mm256_set1_pd(1.0 / static_cast<double>(kN));
  for (std::size_t k = 0; k < kN; k += 4) {
    __m256d r = _mm256_load_pd(re + k);
    __m256d m = _mm256_load_pd(im + k);
    if (inverse) {
      r = _mm256_mul_pd(r, scale);
      m = _mm256_mul_pd(m, scale);
    }
    const __m256d lo = _mm256_unpacklo_pd(r, m);  // r0 i0 r2 i2
    const __m256d hi = _mm256_unpackhi_pd(r, m);  // r1 i1 r3 i3
    _mm256_storeu_pd(out + 2 * k, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 2 * k + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  _mm256_zeroupper();
  return true;
}
#endif

}  // namespace

namespace fft_kernels {

Fft64Fn fft64_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  static const Fft64Fn kernel = [] {
    // Idempotent; makes the check safe even from a static initializer.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? fft64_avx2 : nullptr;
  }();
  return kernel;
#else
  return nullptr;
#endif
}

}  // namespace fft_kernels

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }

  bitrev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }

  // The factors must match the values the old in-loop recurrence
  // (w = 1; w *= wlen) produced, last ulp included, so the tables are
  // filled by running exactly that recurrence once per stage.
  if (n > 1) {
    for (int pass = 0; pass < 2; ++pass) {
      const double sign = pass == 0 ? -1.0 : 1.0;
      auto& table = twiddle_[pass];
      table.resize(n - 1);
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            sign * 2.0 * std::numbers::pi / static_cast<double>(len);
        const Cx wlen(std::cos(angle), std::sin(angle));
        Cx w(1.0, 0.0);
        for (std::size_t j = 0; j < len / 2; ++j) {
          table[len / 2 - 1 + j] = w;
          w *= wlen;
        }
      }
      for (const Cx& w : table) {
        twiddle_re_[pass].push_back(w.real());
        twiddle_im_[pass].push_back(w.imag());
      }
    }
  }
  if (n == kN) kernel_ = fft_kernels::fft64_kernel();
}

void FftPlan::transform(std::span<Cx> data, bool inverse) const {
  if (kernel_ != nullptr && data.size() == n_) {
    const int d = inverse ? 1 : 0;
    if (kernel_(data.data(), twiddle_re_[d].data(), twiddle_im_[d].data(),
                bitrev_.data(), inverse)) {
      return;
    }
  }
  run(data, inverse);
}

void FftPlan::run(std::span<Cx> data, bool inverse) const {
  if (data.size() != n_) {
    throw std::invalid_argument("fft: data size does not match plan");
  }
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  const std::vector<Cx>& twiddle = twiddle_[inverse ? 1 : 0];
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const Cx* w = twiddle.data() + (len / 2 - 1);
    for (std::size_t i = 0; i < n_; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Cx u = data[i + j];
        const Cx v = data[i + j + len / 2] * w[j];
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (Cx& x : data) x *= scale;
  }
}

const FftPlan& fft_plan(std::size_t n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  // One slot per log2(size); plans are created once under the mutex and
  // published with release semantics, so steady-state lookups are a single
  // acquire load. Plans intentionally live for the whole process.
  static std::array<std::atomic<const FftPlan*>, 64> slots{};
  static std::mutex build_mutex;
  const auto idx = static_cast<std::size_t>(std::countr_zero(n));
  const FftPlan* plan = slots[idx].load(std::memory_order_acquire);
  if (plan == nullptr) {
    std::lock_guard<std::mutex> lock(build_mutex);
    plan = slots[idx].load(std::memory_order_acquire);
    if (plan == nullptr) {
      plan = new FftPlan(n);
      slots[idx].store(plan, std::memory_order_release);
    }
  }
  return *plan;
}

void fft_in_place(std::span<Cx> data, bool inverse) {
  const FftPlan& plan = fft_plan(data.size());
  if (inverse) {
    plan.inverse(data);
  } else {
    plan.forward(data);
  }
}

CxVec fft(std::span<const Cx> data) {
  CxVec out(data.begin(), data.end());
  fft_in_place(out, /*inverse=*/false);
  return out;
}

CxVec ifft(std::span<const Cx> data) {
  CxVec out(data.begin(), data.end());
  fft_in_place(out, /*inverse=*/true);
  return out;
}

double energy(std::span<const Cx> data) {
  double sum = 0.0;
  for (const Cx& x : data) sum += std::norm(x);
  return sum;
}

}  // namespace silence

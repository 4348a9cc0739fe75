#include "calibrate.h"

#include <emmintrin.h>

#include <chrono>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdlib>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

using cd = std::complex<double>;

// The simulator's hot loops in miniature: 64-point complex FFTs (the OFDM
// symbol), saturating int16 add-compare-select (the Viterbi kernel),
// sin/cos (synchronisation and fading) and a pass over a buffer larger
// than the L2 cache.
constexpr int kFfts = 5000;
constexpr int kAcsSteps = 150000;
constexpr int kTrig = 75000;
constexpr std::size_t kStreamBytes = std::size_t{1} << 21;  // 2 MiB
constexpr std::size_t kStreamDoubles = kStreamBytes / sizeof(double);
constexpr int kStreamPasses = 15;

void fft64(cd* x, const cd* twiddle) {
  for (unsigned i = 1, j = 0; i < 64; ++i) {
    unsigned bit = 32;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (unsigned len = 2; len <= 64; len <<= 1) {
    const unsigned step = 64 / len;
    for (unsigned i = 0; i < 64; i += len) {
      for (unsigned k = 0; k < len / 2; ++k) {
        const cd u = x[i + k];
        const cd v = x[i + k + len / 2] * twiddle[k * step];
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
      }
    }
  }
}

struct Buffers {
  std::vector<cd> source = std::vector<cd>(64);
  std::vector<cd> twiddle = std::vector<cd>(32);
  // Aligned to its own size, so its page layout does not depend on what
  // the process allocated before.
  double* stream = static_cast<double*>(
      std::aligned_alloc(kStreamBytes, kStreamBytes));

  Buffers() {
    for (std::size_t i = 0; i < source.size(); ++i) {
      source[i] = {std::cos(0.3 * i), std::sin(0.7 * i)};
    }
    for (std::size_t k = 0; k < twiddle.size(); ++k) {
      twiddle[k] = std::polar(1.0, -2.0 * M_PI * k / 64.0);
    }
    for (std::size_t i = 0; i < kStreamDoubles; ++i) stream[i] = 1e-6 * i;
  }
  ~Buffers() { std::free(stream); }
};

}  // namespace

double calibration_s() {
  static Buffers b;
  const auto t0 = std::chrono::steady_clock::now();

  cd work[64];
  cd fft_acc = 0.0;
  for (int r = 0; r < kFfts; ++r) {
    for (int i = 0; i < 64; ++i) work[i] = b.source[i];
    work[r & 63] += cd(1e-3 * r, 0.0);
    fft64(work, b.twiddle.data());
    fft_acc += work[(r * 7) & 63];
  }

  __m128i metric[8];
  for (int i = 0; i < 8; ++i) metric[i] = _mm_set1_epi16(static_cast<short>(i));
  const __m128i branch0 = _mm_setr_epi16(3, -1, 4, -1, 5, -9, 2, -6);
  const __m128i branch1 = _mm_setr_epi16(-5, 3, -5, 8, -9, 7, -9, 3);
  for (int s = 0; s < kAcsSteps; ++s) {
    for (int i = 0; i < 8; ++i) {
      const __m128i a = _mm_adds_epi16(metric[i], branch0);
      const __m128i c = _mm_adds_epi16(metric[(i + 1) & 7], branch1);
      metric[i] = _mm_max_epi16(a, c);
    }
  }
  __m128i best = metric[0];
  for (int i = 1; i < 8; ++i) best = _mm_max_epi16(best, metric[i]);

  double trig = 0.0;
  for (int i = 0; i < kTrig; ++i) {
    const double phase = 1e-4 * i;
    trig += std::sin(phase) * std::cos(phase);
  }

  double stream_acc = 0.0;
  for (int p = 0; p < kStreamPasses; ++p) {
    for (std::size_t i = 0; i < kStreamDoubles; ++i) {
      stream_acc += b.stream[i];
      b.stream[i] *= 1.0000001;
    }
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  volatile double sink =
      fft_acc.real() + _mm_extract_epi16(best, 0) + trig + stream_acc;
  (void)sink;
  return seconds;
}

}  // namespace perfbench

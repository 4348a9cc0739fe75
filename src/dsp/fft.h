// Radix-2 iterative FFT used for OFDM modulation/demodulation.
//
// 802.11a works on 64-point transforms; the implementation supports any
// power-of-two size so tests can exercise it generically.
//
// Transforms run off cached FftPlan objects (precomputed twiddle factors
// and bit-reversal permutation), so the hot path does no trigonometry and
// no allocation. Plans are built once per size and shared process-wide;
// fft_plan() is thread-safe and lock-free after first use of a size.
//
// Every OFDM symbol is a 64-point transform, so forward()/inverse() at
// n = 64 run an AVX2 kernel, where the CPU has AVX2, that replays the
// radix-2 loop operation for operation: the same bit reversal, stage
// order, twiddles, inline complex products and 1/64 scale, hence the
// same bits. A transform that meets a NaN (where GCC's complex multiply
// would call __muldc3) runs the loop itself, as does every transform on
// other CPUs. The kernel and its contract live in dsp/fft_kernels.h.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace silence {

using Cx = std::complex<double>;
using CxVec = std::vector<Cx>;

namespace fft_kernels {
// A 64-point SIMD kernel (dsp/fft_kernels.h): one transform of `data` in
// place, with the plan's split twiddles for the direction
// (FftPlan::twiddle_re/_im) and its bit reversal; `inverse` applies the
// 1/64 scale. Returns false, leaving `data` untouched, when the
// transform needs FftPlan::run().
using Fft64Fn = bool (*)(Cx* data, const double* w_re, const double* w_im,
                         const std::uint32_t* bitrev, bool inverse);
}  // namespace fft_kernels

// Precomputed tables for one transform size. The twiddle factors are
// generated with the same repeated-multiplication recurrence the butterfly
// loop historically used, so plan-driven transforms are bit-identical to
// the original per-call computation.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  // In-place transforms over exactly size() elements; the inverse
  // applies the 1/n scale.
  void forward(std::span<Cx> data) const { transform(data, false); }
  void inverse(std::span<Cx> data) const { transform(data, true); }

  // The portable radix-2 butterfly loop, 1/n scale included for
  // `inverse`. forward()/inverse() run it for sizes other than 64, on
  // CPUs without the kernel, and for the rare 64-point transform the
  // kernel hands back (one that meets a NaN, see dsp/fft_kernels.h); the
  // kernel tests use it as their oracle.
  void run(std::span<Cx> data, bool inverse) const;

  // Split re/im copies of the stage-major twiddle tables (the stage with
  // butterfly span `len` stores its len/2 factors at offset len/2 - 1)
  // and the bit-reversal permutation, for the SIMD kernel.
  std::span<const double> twiddle_re(bool inverse) const {
    return twiddle_re_[inverse ? 1 : 0];
  }
  std::span<const double> twiddle_im(bool inverse) const {
    return twiddle_im_[inverse ? 1 : 0];
  }
  std::span<const std::uint32_t> bit_reversal() const { return bitrev_; }

 private:
  void transform(std::span<Cx> data, bool inverse) const;

  std::size_t n_;
  // Stage-major twiddles (total n - 1 entries), [0] forward, [1] inverse.
  std::vector<Cx> twiddle_[2];
  std::vector<double> twiddle_re_[2];
  std::vector<double> twiddle_im_[2];
  std::vector<std::uint32_t> bitrev_;
  // The 64-point kernel this CPU runs; null for other sizes or when none.
  fft_kernels::Fft64Fn kernel_ = nullptr;
};

// Shared plan for `n` (must be a power of two). The returned reference is
// valid for the lifetime of the process.
const FftPlan& fft_plan(std::size_t n);

// In-place decimation-in-time FFT. `data.size()` must be a power of two.
// `inverse` selects the inverse transform, which applies the 1/N scaling
// (so ifft(fft(x)) == x).
void fft_in_place(std::span<Cx> data, bool inverse);

// Out-of-place conveniences.
CxVec fft(std::span<const Cx> data);
CxVec ifft(std::span<const Cx> data);

// Total energy sum |x|^2 of a vector.
double energy(std::span<const Cx> data);

}  // namespace silence

#include "channel/fading.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numbers>
#include <stdexcept>

#include "channel/fading_kernels.h"
#include "common/db.h"
#include "obs/flight/flight.h"
#include "obs/obs.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace silence {

// SNR conventions. The transmitter's IFFT carries unit-average-energy
// constellation points, so after the receiver's unnormalized 64-point FFT
// a data bin holds X[k]*H[k] with E[|X|^2] = 1, while time-domain AWGN of
// per-sample variance s^2 appears with variance 64*s^2 per bin. The mean
// subcarrier SNR through a unit-energy channel (sum |h_l|^2 = 1) is then
// 1 / (64 * s^2).
double noise_var_for_snr_db(double snr_db) {
  return 1.0 / (kFftSize * db_to_linear(snr_db));
}

double freq_noise_var(double time_noise_var) {
  return kFftSize * time_noise_var;
}

namespace {

// e^{-j 2 pi k l / 64} for every bin k and tap delay l below the CP
// length, built once per process with the exact expression the response
// used to evaluate on every call, so the table changes no result bit.
using TapTwiddles = std::array<std::array<Cx, kCpLength>, kFftSize>;

const TapTwiddles& tap_twiddles() {
  static const TapTwiddles table = [] {
    TapTwiddles t{};
    for (int k = 0; k < kFftSize; ++k) {
      for (int l = 0; l < kCpLength; ++l) {
        const double angle = -2.0 * std::numbers::pi * k *
                             static_cast<double>(l) / kFftSize;
        t[static_cast<std::size_t>(k)][static_cast<std::size_t>(l)] =
            Cx{std::cos(angle), std::sin(angle)};
      }
    }
    return t;
  }();
  return table;
}

// |H_k|^2 on the data subcarriers, in data_subcarrier_bins() order.
using DataBinGains = std::array<double, kNumDataSubcarriers>;

DataBinGains data_bin_gains(const FadingChannel& channel) {
  const auto response = channel.frequency_response();
  DataBinGains gains{};
  std::size_t i = 0;
  for (int bin : data_subcarrier_bins()) {
    gains[i++] = std::norm(response[static_cast<std::size_t>(bin)]);
  }
  return gains;
}

// Clamped harmonic mean of the per-subcarrier SNRs: an aggregate that a
// faded subcarrier drags down hard, modelling the paper's observation
// that "the measured SNR is dragged to a low value by those fading
// subcarriers". Deep notches are clamped near the noise floor: the NIC
// cannot report a subcarrier as far *worse* than pure noise.
double measured_snr_db_of(const DataBinGains& gains, double noise_var) {
  const double n_freq = freq_noise_var(noise_var);
  double inverse_sum = 0.0;
  for (const double gain : gains) {
    const double snr = gain / n_freq;
    // Notches contribute at most a -5.2 dB reading each: one dead bin
    // drags the aggregate hard but cannot zero it out.
    inverse_sum += 1.0 / std::max(snr, 0.3);
  }
  return linear_to_db(static_cast<double>(gains.size()) / inverse_sum);
}

}  // namespace

double noise_var_for_measured_snr(const FadingChannel& channel,
                                  double measured_snr_db) {
  // measured_snr_db(nv) is monotone decreasing in nv but not exactly
  // linear in dB (the per-subcarrier clamp bends it), so bisect on the
  // noise power in dB. The channel's data-bin gains do not depend on nv:
  // compute them once and run every step on them.
  const DataBinGains gains = data_bin_gains(channel);
  double lo_db = -80.0, hi_db = 80.0;  // nv = noise_var_for_snr_db(x)
  for (int iter = 0; iter < 60; ++iter) {
    const double mid_db = 0.5 * (lo_db + hi_db);
    const double measured =
        measured_snr_db_of(gains, noise_var_for_snr_db(mid_db));
    if (measured > measured_snr_db) {
      hi_db = mid_db;  // too little noise: push the mean SNR down
    } else {
      lo_db = mid_db;
    }
  }
  return noise_var_for_snr_db(0.5 * (lo_db + hi_db));
}

FadingChannel::FadingChannel(const MultipathProfile& profile,
                             std::uint64_t seed)
    : profile_(profile), rng_(seed) {
  if (profile_.num_taps < 1 || profile_.num_taps > kCpLength) {
    throw std::invalid_argument(
        "FadingChannel: num_taps must be in [1, CP length]");
  }
  const auto n = static_cast<std::size_t>(profile_.num_taps);

  // Exponential PDP, normalized to unit total power; tap 0 additionally
  // splits into a static LOS part and a scattered part per the K-factor.
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
  rebuild_taps();
}

void FadingChannel::rebuild_taps() {
  taps_.resize(los_.size());
  for (std::size_t l = 0; l < los_.size(); ++l) {
    taps_[l] = los_[l] + scatter_[l];
  }
}

namespace {

// libstdc++'s cyl_bessel_j routes through libm's lgamma, which writes the
// process-global `signgam` — concurrent sweep trials advancing their own
// channels race on it (TSan-visible). The return value never depends on
// signgam, so serializing the call fixes the race without changing any
// result bit. Only step() calls it, once per step built: a link builds
// one per packet, and the net engine one per logged step, which every
// member then replays without J0.
double bessel_j0(double x) {
  static std::mutex mu;
  const std::scoped_lock lock(mu);
  return std::cyl_bessel_j(0.0, x);
}

}  // namespace

FadingStep FadingChannel::step(double seconds) const {
  FadingStep s;
  if (seconds <= 0.0) return s;
  const double x =
      2.0 * std::numbers::pi * profile_.doppler_hz * seconds;
  // Jakes autocorrelation J0(x), clamped to [0, 1): beyond the first null
  // the process is effectively decorrelated.
  s.num_taps = static_cast<int>(scatter_.size());
  s.rho = std::max(0.0, bessel_j0(x));
  const double innovation = 1.0 - s.rho * s.rho;
  for (std::size_t l = 0; l < scatter_.size(); ++l) {
    // complex_gaussian(innovation * var)'s sigma, expression for
    // expression.
    s.sigma[l] = std::sqrt(innovation * scatter_var_[l] / 2.0);
  }
  return s;
}

void FadingChannel::advance(const FadingStep& step) {
  if (step.num_taps == 0) return;
  for (std::size_t l = 0; l < scatter_.size(); ++l) {
    const double re = step.sigma[l] * rng_.gaussian();
    const double im = step.sigma[l] * rng_.gaussian();
    scatter_[l] = step.rho * scatter_[l] + Cx{re, im};
  }
  rebuild_taps();
}

namespace fading_kernels {
namespace {

#if defined(__x86_64__) || defined(__i386__)
// One output in scalar code: +0.0 plus the products of the taps that
// reach in[0] or stop at the last tap, in ascending order.
Cx fir_sample(const double* t, std::size_t num_taps, const double* s,
              std::size_t n) {
  double re = 0.0;
  double im = 0.0;
  for (std::size_t l = 0; l < num_taps && l <= n; ++l) {
    const double tr = t[2 * l];
    const double ti = t[2 * l + 1];
    const double sr = s[2 * (n - l)];
    const double si = s[2 * (n - l) + 1];
    re += tr * sr - ti * si;
    im += tr * si + ti * sr;
  }
  return {re, im};
}

// acc + addsub(tr*x, ti*swap(x)): the products of one tap with two
// samples, (tr*sr - ti*si, tr*si + ti*sr) each, added to their sums.
__attribute__((target("avx2"), always_inline)) inline __m256d fir_step(
    __m256d acc, __m256d tr, __m256d ti, __m256d x) {
  return _mm256_add_pd(
      acc, _mm256_addsub_pd(_mm256_mul_pd(tr, x),
                            _mm256_mul_pd(ti, _mm256_permute_pd(x, 0x5))));
}

// Sample-outer: outputs n and n + 1 share a register, summed over every
// tap, once n has all num_taps of them. One iteration sums two such
// pairs, which share each tap's broadcasts.
__attribute__((target("avx2"))) void fir_avx2(const Cx* taps,
                                              std::size_t num_taps,
                                              const Cx* in, std::size_t count,
                                              Cx* out) {
  const auto* t = reinterpret_cast<const double*>(taps);
  const auto* s = reinterpret_cast<const double*>(in);
  const std::size_t head = std::min(count, num_taps - 1);
  std::size_t n = 0;
  for (; n < head; ++n) out[n] = fir_sample(t, num_taps, s, n);
  for (; n + 4 <= count; n += 4) {
    const double* sn = s + 2 * n;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t l = 0; l < num_taps; ++l) {
      const __m256d tr = _mm256_broadcast_sd(t + 2 * l);
      const __m256d ti = _mm256_broadcast_sd(t + 2 * l + 1);
      const __m256d x0 = _mm256_loadu_pd(sn - 2 * l);
      const __m256d x1 = _mm256_loadu_pd(sn - 2 * l + 4);
      acc0 = fir_step(acc0, tr, ti, x0);
      acc1 = fir_step(acc1, tr, ti, x1);
    }
    _mm256_storeu_pd(reinterpret_cast<double*>(out + n), acc0);
    _mm256_storeu_pd(reinterpret_cast<double*>(out + n + 2), acc1);
  }
  for (; n < count; ++n) out[n] = fir_sample(t, num_taps, s, n);
  _mm256_zeroupper();
}
#endif

}  // namespace

FirFn fir_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  static const FirFn kernel = [] {
    // Idempotent; makes the check safe even from a static initializer.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? fir_avx2 : nullptr;
  }();
  return kernel;
#else
  return nullptr;
#endif
}

void fir_tap_outer(const Cx* taps, std::size_t num_taps, const Cx* in,
                   std::size_t count, Cx* out) {
  // The inner loop walks the samples contiguously with a loop-invariant
  // tap, which the compiler vectorizes. Split-double pointers keep the
  // complex multiply in the (ac - bd, ad + bc) form libstdc++ inlines for
  // finite values.
  std::fill_n(out, count, Cx{0.0, 0.0});
  const auto* __restrict s = reinterpret_cast<const double*>(in);
  auto* __restrict o = reinterpret_cast<double*>(out);
  for (std::size_t l = 0; l < num_taps && l < count; ++l) {
    const double tr = taps[l].real();
    const double ti = taps[l].imag();
    double* __restrict ol = o + 2 * l;
    for (std::size_t n = 0; n < count - l; ++n) {
      const double sr = s[2 * n];
      const double si = s[2 * n + 1];
      ol[2 * n] += tr * sr - ti * si;
      ol[2 * n + 1] += tr * si + ti * sr;
    }
  }
}

}  // namespace fading_kernels

CxVec FadingChannel::apply_multipath(std::span<const Cx> samples) const {
  CxVec out(samples.size());
  const fading_kernels::FirFn kernel = fading_kernels::fir_kernel();
  (kernel != nullptr ? kernel : fading_kernels::fir_tap_outer)(
      taps_.data(), taps_.size(), samples.data(), samples.size(), out.data());
  return out;
}

CxVec FadingChannel::transmit(std::span<const Cx> samples, double noise_var,
                              Rng& noise_rng) const {
  OBS_SPAN("chan.apply");
  OBS_COUNT("chan.packets");
  // Flight: the realization this packet saw (a/b = tap re/im, subcarrier
  // field reused as the tap delay index).
  for (std::size_t l = 0; l < taps_.size(); ++l) {
    FLIGHT_EVENT("chan.tap", obs::flight::kNoIndex, l, taps_[l].real(),
                 taps_[l].imag(), 0);
  }
  CxVec out = apply_multipath(samples);
  noise_rng.add_complex_gaussian(out, noise_var);
  OBS_COUNT_N("chan.apply.items", out.size());
  return out;
}

std::array<Cx, kFftSize> FadingChannel::frequency_response() const {
  const TapTwiddles& twiddles = tap_twiddles();
  std::array<Cx, kFftSize> response{};
  for (std::size_t k = 0; k < response.size(); ++k) {
    Cx acc{0.0, 0.0};
    for (std::size_t l = 0; l < taps_.size(); ++l) {
      acc += taps_[l] * twiddles[k][l];
    }
    response[k] = acc;
  }
  return response;
}

double FadingChannel::actual_snr_db(double noise_var) const {
  const DataBinGains gains = data_bin_gains(*this);
  const double n_freq = freq_noise_var(noise_var);
  double sum = 0.0;
  for (const double gain : gains) sum += gain / n_freq;
  return linear_to_db(sum / static_cast<double>(gains.size()));
}

double FadingChannel::measured_snr_db(double noise_var) const {
  return measured_snr_db_of(data_bin_gains(*this), noise_var);
}

}  // namespace silence

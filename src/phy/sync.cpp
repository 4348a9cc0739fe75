#include "phy/sync.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "phy/params.h"
#include "phy/preamble.h"

namespace silence {
namespace {

// CFO from the phase of the lag-`lag` autocorrelation over the span.
double cfo_from_lag(std::span<const Cx> samples, std::size_t lag) {
  Cx acc{0.0, 0.0};
  for (std::size_t n = 0; n + lag < samples.size(); ++n) {
    acc += std::conj(samples[n]) * samples[n + lag];
  }
  const double phase = std::arg(acc);
  return phase * kSampleRateHz /
         (2.0 * std::numbers::pi * static_cast<double>(lag));
}

}  // namespace

double estimate_cfo_coarse(std::span<const Cx> stf_samples) {
  if (stf_samples.size() < 2 * 16) {
    throw std::invalid_argument("estimate_cfo_coarse: need >= 32 samples");
  }
  return cfo_from_lag(stf_samples, 16);
}

double estimate_cfo_fine(std::span<const Cx> ltf_samples) {
  if (ltf_samples.size() != static_cast<std::size_t>(kLtfSamples)) {
    throw std::invalid_argument("estimate_cfo_fine: need 160 LTF samples");
  }
  // Correlate the two identical 64-sample long symbols (after the
  // 32-sample guard).
  return cfo_from_lag(ltf_samples.subspan(32), 64);
}

CfoRotator::CfoRotator(double cfo_hz)
    : step_(-2.0 * std::numbers::pi * cfo_hz / kSampleRateHz) {}

void correct_cfo(std::span<Cx> samples, double cfo_hz) {
  const double step = -2.0 * std::numbers::pi * cfo_hz / kSampleRateHz;
  double phase = 0.0;
  for (Cx& x : samples) {
    x *= Cx{std::cos(phase), std::sin(phase)};
    phase += step;
  }
}

std::optional<std::size_t> detect_frame_start(std::span<const Cx> samples,
                                              double threshold) {
  constexpr std::size_t kLag = 16;       // STF period
  constexpr std::size_t kWindow = 64;    // correlation window
  if (samples.size() < kPreambleSamples + kSymbolSamples) {
    return std::nullopt;
  }

  // Stage 1 — coarse: sliding normalized autocorrelation
  //   M(d) = |P(d)|^2 / R(d)^2,
  //   P(d) = sum conj(r[d+n]) r[d+n+16], R(d) = sum |r[d+n+16]|^2,
  // maintained incrementally for O(1) per shift.
  const std::size_t last =
      samples.size() - (kPreambleSamples + kSymbolSamples);
  Cx p{0.0, 0.0};
  double r = 0.0;
  for (std::size_t n = 0; n < kWindow; ++n) {
    p += std::conj(samples[n]) * samples[n + kLag];
    r += std::norm(samples[n + kLag]);
  }
  std::optional<std::size_t> coarse;
  for (std::size_t d = 0; d <= last; ++d) {
    if (r > 1e-18) {
      const double metric = std::norm(p) / (r * r);
      if (metric > threshold) {
        coarse = d;
        break;
      }
    }
    p += std::conj(samples[d + kWindow]) * samples[d + kWindow + kLag] -
         std::conj(samples[d]) * samples[d + kLag];
    r += std::norm(samples[d + kWindow + kLag]) -
         std::norm(samples[d + kLag]);
  }
  if (!coarse) return std::nullopt;

  // Stage 2 — fine: cross-correlate with the known time-domain long
  // training symbol around the expected LTF location. The first long
  // symbol starts kStfSamples + 32 after the frame start; search a
  // generous window around the coarse estimate.
  const CxVec ltf_body = ifft(ltf_frequency_bins());
  double ltf_energy = 0.0;
  for (const Cx& x : ltf_body) ltf_energy += std::norm(x);

  // The two long symbols are identical, so a single correlation peak is
  // ambiguous (+64 samples); summing the correlations at d and d+64
  // peaks only where BOTH long symbols line up — the first one.
  const std::size_t nominal = *coarse + kStfSamples + 32;
  const std::size_t search_lo = nominal > 48 ? nominal - 48 : 0;
  const std::size_t search_hi =
      std::min(nominal + 48, samples.size() - 2 * kFftSize);
  double best_metric = 0.0;
  std::size_t best_pos = nominal;
  for (std::size_t d = search_lo; d <= search_hi; ++d) {
    Cx corr1{0.0, 0.0}, corr2{0.0, 0.0};
    double energy = 0.0;
    for (std::size_t n = 0; n < kFftSize; ++n) {
      corr1 += std::conj(ltf_body[n]) * samples[d + n];
      corr2 += std::conj(ltf_body[n]) * samples[d + kFftSize + n];
      energy += std::norm(samples[d + n]) +
                std::norm(samples[d + kFftSize + n]);
    }
    if (energy < 1e-18) continue;
    const double metric =
        (std::norm(corr1) + std::norm(corr2)) / (energy * ltf_energy);
    if (metric > best_metric) {
      best_metric = metric;
      best_pos = d;
    }
  }
  if (best_metric < 0.2) return std::nullopt;  // no LTF: false alarm
  const std::size_t frame_start_offset = kStfSamples + 32;
  if (best_pos < frame_start_offset) return std::nullopt;
  return best_pos - frame_start_offset;
}

}  // namespace silence

#include "channel/impairments.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "phy/params.h"

namespace silence {

RadioImpairments::RadioImpairments(const ImpairmentProfile& profile,
                                   std::uint64_t seed)
    : profile_(profile), rng_(seed) {
  if (profile_.tx_evm_floor < 0.0 || profile_.phase_noise_std < 0.0) {
    throw std::invalid_argument("RadioImpairments: negative impairment");
  }
}

CxVec RadioImpairments::apply(std::span<const Cx> samples) {
  CxVec out(samples.begin(), samples.end());
  if (out.empty()) return out;

  if (profile_.tx_evm_floor > 0.0) {
    double mean_power = 0.0;
    for (const Cx& x : out) mean_power += std::norm(x);
    mean_power /= static_cast<double>(out.size());
    const double error_var =
        profile_.tx_evm_floor * profile_.tx_evm_floor * mean_power;
    rng_.add_complex_gaussian(out, error_var);
  }

  const double cfo_step =
      2.0 * std::numbers::pi * profile_.cfo_hz / kSampleRateHz;
  for (Cx& x : out) {
    phase_ += cfo_step;
    if (profile_.phase_noise_std > 0.0) {
      phase_ += profile_.phase_noise_std * rng_.gaussian();
    }
    x *= Cx{std::cos(phase_), std::sin(phase_)};
  }
  // Keep the accumulator bounded over long simulations.
  phase_ = std::fmod(phase_, 2.0 * std::numbers::pi);
  return out;
}

}  // namespace silence

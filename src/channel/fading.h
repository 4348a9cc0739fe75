// Indoor wireless channel simulator.
//
// Substitute for the paper's physical lab links (see DESIGN.md §1): a
// tapped-delay-line multipath channel with an exponential power delay
// profile, a Rician line-of-sight component on the first tap, Jakes-
// correlated Gauss-Markov temporal evolution (walking-speed Doppler), and
// AWGN. The model produces the three indoor phenomena CoS relies on:
// frequency-selective per-subcarrier fading, a periodic in-packet symbol
// error pattern, and slow temporal variation (large coherence time).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/rng.h"
#include "dsp/fft.h"
#include "phy/params.h"

namespace silence {

struct MultipathProfile {
  int num_taps = 8;               // FIR length in 50 ns samples (<= CP)
  double decay_taps = 2.5;        // exponential PDP decay constant
  double rician_k_linear = 4.0;   // LOS-to-scatter power ratio on tap 0
  double doppler_hz = 15.0;       // walking speed indoors at 5 GHz-ish
  // When > 0, EVERY tap splits into a static and a scattered part with
  // this K factor (overrides rician_k_linear). Models environments whose
  // ray geometry is essentially frozen — the regime behind the paper's
  // Fig. 7 observation that per-subcarrier EVM is stable over tens of
  // milliseconds; only the small scattered residue fades.
  double k_all_taps_linear = 0.0;

  friend bool operator==(const MultipathProfile&,
                         const MultipathProfile&) = default;
};

// Per-sample time-domain AWGN variance that yields `snr_db` mean
// subcarrier SNR through a unit-energy channel (see conventions in
// fading.cpp).
double noise_var_for_snr_db(double snr_db);

// Frequency-domain per-bin noise variance seen after the receiver FFT.
double freq_noise_var(double time_noise_var);

class FadingChannel;

// The coefficients of one Gauss-Markov fading step of a given length: the
// Jakes correlation rho = max(0, J0(2 pi fd t)) and each tap's innovation
// standard deviation. They depend only on the profile, so a step built by
// one channel advances every channel of the same profile, and a caller
// that applies one step to many channels computes J0 once.
struct FadingStep {
  int num_taps = 0;  // 0 marks a step of length <= 0, which draws nothing
  double rho = 0.0;
  std::array<double, kCpLength> sigma{};
};

// Per-sample noise variance that makes `channel`'s NIC-style measured SNR
// equal `measured_snr_db` for its *current* tap realization. Experiments
// sweep measured SNR (the paper's x axis), which this helper pins down
// regardless of how deep the realization's fades are.
double noise_var_for_measured_snr(const FadingChannel& channel,
                                  double measured_snr_db);

class FadingChannel {
 public:
  // `seed` selects the multipath realization ("position" in the paper's
  // terms); different seeds model different receiver positions.
  FadingChannel(const MultipathProfile& profile, std::uint64_t seed);

  // Advances the scattered tap components by `seconds` of walking-speed
  // motion using the Gauss-Markov approximation of Jakes fading
  // (correlation rho = J0(2*pi*fd*dt)).
  void advance(double seconds) { advance(step(seconds)); }

  // The step advance(seconds) applies, and applying one. `step` must come
  // from a channel with this channel's profile.
  FadingStep step(double seconds) const;
  void advance(const FadingStep& step);

  // Convolves samples with the tap gains and adds AWGN of per-sample
  // variance `noise_var`.
  CxVec transmit(std::span<const Cx> samples, double noise_var,
                 Rng& noise_rng) const;

  // Applies only the multipath FIR (no noise) — used by tests.
  CxVec apply_multipath(std::span<const Cx> samples) const;

  // 64-bin frequency response of the current tap gains (the taps times
  // a process-lifetime table of e^{-j 2 pi k l / 64}).
  std::array<Cx, kFftSize> frequency_response() const;

  // Arithmetic-mean data-subcarrier SNR (dB): the "actual SNR" a channel
  // sounder would report.
  double actual_snr_db(double noise_var) const;

  // Harmonic-mean data-subcarrier SNR (dB), each subcarrier's SNR
  // clamped from below at 0.3 (-5.2 dB): the NIC-style "measured SNR",
  // dragged down by deep-faded subcarriers exactly as the paper observes.
  double measured_snr_db(double noise_var) const;

  std::span<const Cx> taps() const { return taps_; }
  const MultipathProfile& profile() const { return profile_; }

 private:
  MultipathProfile profile_;
  Rng rng_;
  CxVec los_;      // static LOS components
  CxVec scatter_;  // evolving scattered components
  CxVec taps_;     // los_ + scatter_
  std::vector<double> scatter_var_;  // per-tap scattered power

  void rebuild_taps();
};

}  // namespace silence

// Carrier frequency offset (CFO) estimation and correction from the
// 802.11a preamble — the receiver-side counterpart of the oscillator
// impairments in channel/impairments.h.
#pragma once

#include <cmath>
#include <optional>
#include <span>

#include "dsp/fft.h"

namespace silence {

// Coarse CFO estimate from the short training field: the STF is periodic
// with 16 samples, so the phase of the lag-16 autocorrelation over the
// STF gives the offset (unambiguous to +-1/(2*16*Ts) = +-625 kHz).
double estimate_cfo_coarse(std::span<const Cx> stf_samples);

// Fine CFO estimate from the two identical long training symbols
// (lag 64, unambiguous to +-156.25 kHz).
double estimate_cfo_fine(std::span<const Cx> ltf_samples);

// Derotates a burst in place by `cfo_hz`.
void correct_cfo(std::span<Cx> samples, double cfo_hz);

// correct_cfo()'s rotation, one sample at a time from the burst start:
// the phase recurrence steps through every sample exactly as
// correct_cfo()'s loop does, but a caller rotates only the samples it
// will read and skips the rest at the cost of one addition each (no
// sincos). x *= next() on every sample of a burst is correct_cfo().
class CfoRotator {
 public:
  explicit CfoRotator(double cfo_hz);

  // Steps the phase past `count` samples without rotating them.
  void skip(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) phase_ += step_;
  }

  // The next sample's rotation; steps the phase past it.
  Cx next() {
    const Cx rotation{std::cos(phase_), std::sin(phase_)};
    phase_ += step_;
    return rotation;
  }

 private:
  double step_;
  double phase_ = 0.0;
};

// --- Packet detection / symbol timing ----------------------------------

// Locates the start of an 802.11a frame inside `samples` (which may
// begin with noise or silence). Two stages:
//  1. Schmidl&Cox-style coarse detection: the STF's 16-sample
//     periodicity produces a plateau of the normalized lag-16
//     autocorrelation metric;
//  2. fine symbol timing: cross-correlation against the known long
//     training symbol pins the LTF position exactly.
// Returns the index of the first STF sample, or nullopt when no frame
// is found. `threshold` is the coarse metric's trigger level in (0, 1).
std::optional<std::size_t> detect_frame_start(std::span<const Cx> samples,
                                              double threshold = 0.5);

}  // namespace silence

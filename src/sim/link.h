// A point-to-point simulated link: fading channel + AWGN + optional pulse
// interference, with the SNR bookkeeping the experiments need.
#pragma once

#include <optional>

#include "channel/fading.h"
#include "channel/impairments.h"
#include "channel/interference.h"
#include "common/bits.h"
#include "common/rng.h"

namespace silence {

struct LinkConfig {
  MultipathProfile profile{};
  std::uint64_t channel_seed = 1;  // the "position" of the receiver
  std::uint64_t noise_seed = 2;
  double snr_db = 15.0;  // mean subcarrier SNR through a unit channel
  // When set, snr_db is interpreted as the NIC-measured SNR of this
  // realization instead of the mean SNR (the experiments' x axis).
  bool snr_is_measured = false;
  std::optional<PulseInterferer> interferer;
  // Transmitter hardware impairments (CFO, phase noise, TX EVM floor).
  std::optional<ImpairmentProfile> impairments;
};

class Link {
 public:
  explicit Link(const LinkConfig& config);

  // Passes a burst through the channel at its current fading state:
  // multipath + AWGN, plus the configured interference and TX
  // impairments. Callers model mobility explicitly via advance().
  CxVec send(std::span<const Cx> samples);

  // Advances the fading process by `seconds` (e.g. inter-packet gaps), or
  // by a step built by a channel of the same profile.
  void advance(double seconds) { channel_.advance(seconds); }
  void advance(const FadingStep& step) { channel_.advance(step); }

  // Replaces the pulse interference applied to subsequent send() calls;
  // nullopt removes it. The net engine uses this to inject transient
  // OBSS/hidden-terminal overlap into one frame exchange. Note the
  // interferer consumes this link's noise RNG while set, so installing
  // one is itself part of the deterministic stream.
  void set_interferer(const std::optional<PulseInterferer>& interferer) {
    interferer_ = interferer;
  }

  double noise_var() const { return noise_var_; }
  double freq_noise_var() const { return silence::freq_noise_var(noise_var_); }
  double actual_snr_db() const { return channel_.actual_snr_db(noise_var_); }
  double measured_snr_db() const {
    return channel_.measured_snr_db(noise_var_);
  }

  FadingChannel& channel() { return channel_; }
  const FadingChannel& channel() const { return channel_; }
  Rng& rng() { return rng_; }

 private:
  FadingChannel channel_;
  Rng rng_;
  double noise_var_;
  std::optional<PulseInterferer> interferer_;
  std::optional<RadioImpairments> radio_;
};

// Builds a test PSDU of `total_octets` (>= 5): random payload with the
// FCS appended in the final 4 octets.
Bytes make_test_psdu(std::size_t total_octets, Rng& rng);

}  // namespace silence

#include "sim/link.h"

#include <stdexcept>

#include "common/crc32.h"
#include "obs/obs.h"

namespace silence {

Link::Link(const LinkConfig& config)
    : channel_(config.profile, config.channel_seed),
      rng_(config.noise_seed),
      noise_var_(config.snr_is_measured
                     ? noise_var_for_measured_snr(channel_, config.snr_db)
                     : noise_var_for_snr_db(config.snr_db)),
      interferer_(config.interferer) {
  if (config.impairments) {
    radio_.emplace(*config.impairments, config.noise_seed ^ 0x5117u);
  }
}

CxVec Link::send(std::span<const Cx> samples) {
  OBS_SPAN("sim.link.send");
  OBS_COUNT("sim.link.sends");
  CxVec received =
      radio_ ? channel_.transmit(radio_->apply(samples), noise_var_, rng_)
             : channel_.transmit(samples, noise_var_, rng_);
  if (interferer_) interferer_->apply(received, rng_);
  return received;
}

Bytes make_test_psdu(std::size_t total_octets, Rng& rng) {
  if (total_octets < 5) {
    throw std::invalid_argument("make_test_psdu: need at least 5 octets");
  }
  Bytes psdu = rng.bytes(total_octets - 4);
  append_fcs(psdu);
  return psdu;
}

}  // namespace silence

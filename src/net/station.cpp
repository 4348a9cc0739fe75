#include "net/station.h"

#include <vector>

#include "common/crc32.h"
#include "mac/aggregation.h"
#include "mac/frame.h"
#include "mac/timing.h"
#include "runner/seed.h"

namespace silence::net {

namespace {

// Seed substream bases: keep the station-indexed families far apart so
// no two stations (indices < 2^8 in practice) ever share a stream.
constexpr std::uint64_t kChannelStream = 0x100;
constexpr std::uint64_t kNoiseStream = 0x200;
constexpr std::uint64_t kTrafficStream = 0x300;

LinkConfig link_config_for(const Scenario& scenario, int index,
                           double snr_db, std::uint64_t seed) {
  LinkConfig config;
  config.profile = scenario.profile;
  config.channel_seed = runner::substream_seed(
      seed, kChannelStream + static_cast<std::uint64_t>(index));
  config.noise_seed = runner::substream_seed(
      seed, kNoiseStream + static_cast<std::uint64_t>(index));
  config.snr_db = snr_db;
  config.snr_is_measured = true;
  return config;
}

SessionConfig session_config_for(const Scenario& scenario,
                                 PhyWorkspace& workspace) {
  SessionConfig config;
  config.profile = scenario.cos;
  config.fixed_rate_mbps = scenario.fixed_rate_mbps;
  config.use_selection_feedback = scenario.use_selection_feedback;
  config.workspace = &workspace;
  return config;
}

std::size_t clamp_mpdus(const Scenario& scenario, std::size_t mpdu_psdu) {
  const std::size_t fit = max_mpdus_per_aggregate(mpdu_psdu);
  const auto wanted = static_cast<std::size_t>(
      scenario.max_mpdus_per_frame < 1 ? 1 : scenario.max_mpdus_per_frame);
  return wanted < fit ? wanted : fit;
}

// The aggregate's on-air size is a pure function of the subframe count
// and size; measure it once with placeholder MPDUs. The extra 4 octets
// are the outer FCS the PHY validates (per-MPDU FCS rides inside).
std::size_t planned_aggregate_octets(std::size_t mpdus,
                                     std::size_t mpdu_psdu) {
  const std::vector<Bytes> dummy(mpdus, Bytes(mpdu_psdu, 0u));
  return aggregate_mpdus(dummy).size() + 4;
}

}  // namespace

Station::Station(const Scenario& scenario, int index, double snr_db,
                 std::uint64_t seed, PhyWorkspace& workspace)
    : mpdus_per_frame_(
          clamp_mpdus(scenario, scenario.mpdu_octets + kMacOverheadOctets)),
      mpdu_payload_octets_(scenario.mpdu_octets),
      aggregate_octets_(planned_aggregate_octets(
          mpdus_per_frame_, scenario.mpdu_octets + kMacOverheadOctets)),
      control_bits_per_frame_(scenario.control_bits_per_frame),
      fixed_rate_mbps_(scenario.fixed_rate_mbps),
      address_(static_cast<std::uint8_t>(index + 1)),
      traffic_rng_(runner::substream_seed(
          seed, kTrafficStream + static_cast<std::uint64_t>(index))),
      link_(link_config_for(scenario, index, snr_db, seed)),
      session_(link_, session_config_for(scenario, workspace)) {
  backoff_.restart(traffic_rng_);
}

double Station::nominal_airtime_us() const {
  const Mcs& mcs = fixed_rate_mbps_
                       ? mcs_for_rate(*fixed_rate_mbps_)
                       : select_mcs_by_snr(link_.measured_snr_db());
  return psdu_airtime_us(aggregate_octets_, mcs);
}

Station::TxOutcome Station::transmit(
    const std::optional<PulseInterferer>& interferer) {
  if (interferer) link_.set_interferer(interferer);
  std::vector<Bytes> mpdus;
  mpdus.reserve(mpdus_per_frame_);
  for (std::size_t m = 0; m < mpdus_per_frame_; ++m) {
    MacFrame frame;
    frame.type = FrameType::kData;
    frame.src = address_;
    frame.dst = 0;  // the AP
    frame.seq = seq_++;
    frame.payload = traffic_rng_.bytes(mpdu_payload_octets_);
    mpdus.push_back(serialize_frame(frame));
  }
  Bytes aggregate = aggregate_mpdus(mpdus);
  append_fcs(aggregate);  // outer FCS: what the PHY's decode validates
  const Bits control = traffic_rng_.bits(control_bits_per_frame_);

  const PacketReport report = session_.send_packet(aggregate, control);
  if (interferer) link_.set_interferer(std::nullopt);

  TxOutcome out;
  out.data_airtime_us = psdu_airtime_us(aggregate.size(), *report.mcs);
  out.data_ok = report.data_ok;
  out.mpdus_sent = mpdus_per_frame_;
  out.control_bits_sent = report.control_bits_sent;
  out.control_bits_correct = report.control_bits_correct;

  ++stats_.tx_rounds;
  stats_.data_airtime_us += out.data_airtime_us;
  stats_.control_bits_sent += report.control_bits_sent;
  stats_.control_bits_correct += report.control_bits_correct;
  if (report.data_ok) {
    ++stats_.frames_delivered;
    // Block-ACK semantics: each subframe with an intact delimiter and
    // FCS counts individually; a corrupt delimiter loses the tail. The
    // last 4 octets are the outer FCS, not subframe data.
    const std::span<const std::uint8_t> body =
        std::span<const std::uint8_t>(report.rx.psdu)
            .first(report.rx.psdu.size() - 4);
    for (const DeaggregatedMpdu& sub : deaggregate_mpdus(body)) {
      if (!sub.delimiter_ok) continue;
      if (const auto parsed = parse_frame(sub.mpdu)) {
        ++out.mpdus_delivered;
        out.data_bits += 8 * parsed->payload.size();
      }
    }
    stats_.mpdus_delivered += out.mpdus_delivered;
    stats_.data_bits += out.data_bits;
    backoff_.on_success(traffic_rng_);
  } else {
    ++stats_.frames_lost;
    backoff_.on_collision(traffic_rng_);  // failed exchange
  }
  return out;
}

void Station::on_collision() {
  ++stats_.collisions;
  backoff_.on_collision(traffic_rng_);
}

}  // namespace silence::net

#include "net/coordination.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/cos_link.h"
#include "mac/frame.h"
#include "mac/timing.h"
#include "phy/receiver.h"
#include "runner/seed.h"
#include "sim/session.h"

namespace silence {
namespace {

// The grant message the AP embeds (or polls with): 4-bit station id plus
// 8-bit backlog hint, padded to whole k=4 intervals.
Bits encode_grant(int station_id, int backlog) {
  Bits bits = uint_to_bits(static_cast<std::uint64_t>(station_id), 4);
  const Bits extra = uint_to_bits(
      static_cast<std::uint64_t>(std::min(backlog, 255)), 8);
  bits.insert(bits.end(), extra.begin(), extra.end());
  return bits;
}

std::optional<int> decode_grant(const Bits& bits, int num_stations) {
  if (bits.size() < 12) return std::nullopt;
  const int id = static_cast<int>(bits_to_uint(std::span(bits).first(4)));
  if (id < 0 || id >= num_stations) return std::nullopt;
  return id;
}

struct StationState {
  std::unique_ptr<Link> downlink;   // AP -> station (CoS rides here)
  std::unique_ptr<Link> uplink;     // station -> AP
  std::unique_ptr<CosSession> cos;  // AP's CoS sender toward this station
};

// No coordination: the AP and its stations contend as one saturated BSS
// of plain DCF (no silences, one MPDU per frame) on the engine every
// network scenario runs, at the rate the coordinated modes use.
CoordinationResult run_dcf_baseline(const CoordinationConfig& config,
                                    const Mcs& mcs) {
  net::Scenario scenario;
  net::Topology::Bss& cell = scenario.topology.bss.front();
  cell.num_stations = config.num_stations + 1;
  cell.snr_db_near = config.measured_snr_db;
  cell.snr_db_far = config.measured_snr_db;
  scenario.mpdu_octets = config.frame_octets;
  scenario.max_mpdus_per_frame = 1;
  scenario.control_bits_per_frame = 0;
  scenario.fixed_rate_mbps = mcs.data_rate_mbps;
  scenario.duration_us = config.duration_us;
  const net::NetResult dcf = net::run_scenario(scenario, config.seed);

  // Station 0 is the AP: its deliveries are the downlink.
  CoordinationResult result;
  result.airtime = dcf.airtime;
  result.elapsed_us = dcf.elapsed_us;
  result.downlink_bits = dcf.stations.front().data_bits;
  for (std::size_t i = 1; i < dcf.stations.size(); ++i) {
    result.uplink_bits += dcf.stations[i].data_bits;
  }
  return result;
}

}  // namespace

std::array<std::uint64_t, 4> coordination_link_seeds(std::uint64_t seed,
                                                     int station) {
  std::array<std::uint64_t, 4> seeds{};
  for (std::size_t family = 0; family < seeds.size(); ++family) {
    seeds[family] = runner::substream_seed(
        seed, family * kMaxCoordinatedStations +
                  static_cast<std::uint64_t>(station));
  }
  return seeds;
}

CoordinationResult run_coordination(const CoordinationConfig& config) {
  if (config.num_stations < 1 ||
      config.num_stations > kMaxCoordinatedStations) {
    throw std::invalid_argument("run_coordination: need 1..16 stations");
  }
  const Mcs& mcs = select_mcs_by_snr(config.measured_snr_db);
  if (config.mode == CoordinationMode::kDcfContention) {
    return run_dcf_baseline(config, mcs);
  }

  Rng rng(config.seed);
  std::vector<StationState> stations(
      static_cast<std::size_t>(config.num_stations));
  for (std::size_t i = 0; i < stations.size(); ++i) {
    const auto [down_channel, down_noise, up_channel, up_noise] =
        coordination_link_seeds(config.seed, static_cast<int>(i));
    LinkConfig down;
    down.snr_db = config.measured_snr_db;
    down.snr_is_measured = true;
    down.channel_seed = down_channel;
    down.noise_seed = down_noise;
    stations[i].downlink = std::make_unique<Link>(down);
    LinkConfig up = down;
    up.channel_seed = up_channel;  // independent uplink fading
    up.noise_seed = up_noise;
    stations[i].uplink = std::make_unique<Link>(up);
    SessionConfig session_config;
    stations[i].cos = std::make_unique<CosSession>(*stations[i].downlink,
                                                   session_config);
  }

  CoordinationResult result;
  double now_us = 0.0;
  int round_robin = 0;
  const double frame_us =
      psdu_airtime_us(config.frame_octets + kMacOverheadOctets, mcs);

  while (now_us < config.duration_us) {
    const int grantee = round_robin;
    round_robin = (round_robin + 1) % config.num_stations;
    StationState& station =
        stations[static_cast<std::size_t>(grantee)];

    // --- downlink data frame (carries the CoS grant in kCosGrant) ---
    now_us += kDifsUs;
    result.airtime.idle_us += kDifsUs;

    MacFrame down_frame;
    down_frame.type = FrameType::kData;
    down_frame.src = 0;
    down_frame.dst = static_cast<std::uint8_t>(grantee + 1);
    down_frame.payload = rng.bytes(config.frame_octets);
    const Bytes down_psdu = serialize_frame(down_frame);

    bool downlink_ok = false;
    bool grant_delivered = false;
    ++result.grants_issued;

    if (config.mode == CoordinationMode::kCosGrant) {
      const Bits grant = encode_grant(grantee, config.num_stations);
      const PacketReport report = station.cos->send_packet(down_psdu, grant);
      downlink_ok = report.data_ok;
      grant_delivered =
          report.data_ok && report.control_ok && report.control_bits_sent >= 12 &&
          decode_grant(report.rx.control_bits, config.num_stations) == grantee;
    } else {
      const CxVec samples = frame_to_samples(build_frame(down_psdu, mcs));
      const RxPacket packet =
          receive_packet(station.downlink->send(samples));
      station.downlink->advance(1e-6 * frame_us);
      downlink_ok = packet.ok;
    }
    now_us += frame_us + kSifsUs + ack_airtime_us();
    result.airtime.data_us += frame_us;
    result.airtime.ack_us += ack_airtime_us();
    result.airtime.idle_us += kSifsUs;
    if (downlink_ok) result.downlink_bits += 8 * config.frame_octets;

    // --- coordination step ---
    if (config.mode == CoordinationMode::kExplicitPoll) {
      // An explicit poll frame buys the grant with airtime.
      now_us += kSifsUs + poll_airtime_us();
      result.airtime.idle_us += kSifsUs;
      result.airtime.control_us += poll_airtime_us();
      grant_delivered = downlink_ok;  // poll assumed robust (basic rate)
    }

    // --- granted uplink ---
    if (grant_delivered) {
      MacFrame up_frame;
      up_frame.type = FrameType::kData;
      up_frame.src = static_cast<std::uint8_t>(grantee + 1);
      up_frame.dst = 0;
      up_frame.payload = rng.bytes(config.frame_octets);
      const Bytes up_psdu = serialize_frame(up_frame);
      const CxVec samples = frame_to_samples(build_frame(up_psdu, mcs));
      const RxPacket packet = receive_packet(station.uplink->send(samples));
      station.uplink->advance(1e-6 * frame_us);

      now_us += kSifsUs + frame_us + kSifsUs + ack_airtime_us();
      result.airtime.idle_us += 2.0 * kSifsUs;
      result.airtime.data_us += frame_us;
      result.airtime.ack_us += ack_airtime_us();
      if (packet.ok) result.uplink_bits += 8 * config.frame_octets;
    } else {
      ++result.grants_lost;
    }
  }

  result.elapsed_us = now_us;
  return result;
}

}  // namespace silence

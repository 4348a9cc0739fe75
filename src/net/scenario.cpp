#include "net/scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace silence::net {

namespace {

const runner::Json& require(const runner::Json& json, std::string_view key) {
  const runner::Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error("net::Scenario: missing field '" +
                             std::string(key) + "'");
  }
  return *value;
}

// The registry's view of a SlotHist (unnamed), for quantiles and JSON.
obs::HistogramSnapshot snapshot(const SlotHist& h) {
  obs::HistogramSnapshot snap;
  snap.count = h.count;
  snap.sum = h.sum;
  snap.min = h.min;
  snap.max = h.max;
  std::copy(h.buckets.begin(), h.buckets.end(), snap.buckets.begin());
  return snap;
}

}  // namespace

runner::Json Scenario::to_json() const {
  runner::Json root = runner::Json::object();
  root.set("topology", topology.to_json());
  root.set("traffic", traffic.to_json());
  root.set("mpdu_octets", static_cast<std::int64_t>(mpdu_octets));
  root.set("max_mpdus_per_frame",
           static_cast<std::int64_t>(max_mpdus_per_frame));
  root.set("duration_us", duration_us);
  root.set("control_bits_per_frame",
           static_cast<std::int64_t>(control_bits_per_frame));
  root.set("cos_profile", cos.to_json());
  runner::Json prof = runner::Json::object();
  prof.set("num_taps", profile.num_taps);
  prof.set("decay_taps", profile.decay_taps);
  prof.set("rician_k_linear", profile.rician_k_linear);
  prof.set("doppler_hz", profile.doppler_hz);
  prof.set("k_all_taps_linear", profile.k_all_taps_linear);
  root.set("profile", std::move(prof));
  if (fixed_rate_mbps) {
    root.set("fixed_rate_mbps", static_cast<std::int64_t>(*fixed_rate_mbps));
  } else {
    root.set("fixed_rate_mbps", nullptr);
  }
  root.set("use_selection_feedback", use_selection_feedback);
  return root;
}

Scenario Scenario::from_json(const runner::Json& json) {
  Scenario sc;
  sc.topology = Topology::from_json(require(json, "topology"));
  sc.traffic = TrafficModel::from_json(require(json, "traffic"));
  sc.mpdu_octets =
      static_cast<std::size_t>(require(json, "mpdu_octets").as_int());
  sc.max_mpdus_per_frame =
      static_cast<int>(require(json, "max_mpdus_per_frame").as_int());
  sc.duration_us = require(json, "duration_us").as_double();
  sc.control_bits_per_frame = static_cast<std::size_t>(
      require(json, "control_bits_per_frame").as_int());
  sc.cos = CosProfile::from_json(require(json, "cos_profile"));
  const runner::Json& prof = require(json, "profile");
  sc.profile.num_taps = static_cast<int>(require(prof, "num_taps").as_int());
  sc.profile.decay_taps = require(prof, "decay_taps").as_double();
  sc.profile.rician_k_linear = require(prof, "rician_k_linear").as_double();
  sc.profile.doppler_hz = require(prof, "doppler_hz").as_double();
  sc.profile.k_all_taps_linear =
      require(prof, "k_all_taps_linear").as_double();
  const runner::Json& rate = require(json, "fixed_rate_mbps");
  if (rate.is_null()) {
    sc.fixed_rate_mbps.reset();
  } else {
    sc.fixed_rate_mbps = static_cast<int>(rate.as_int());
  }
  sc.use_selection_feedback =
      require(json, "use_selection_feedback").as_bool();
  return sc;
}

void SlotHist::record(std::uint64_t value) {
  if (count == 0) {
    buckets.assign(obs::kHistogramBuckets, 0);
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[obs::histogram_bucket(value)];
}

double SlotHist::mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double SlotHist::quantile(double q) const {
  return snapshot(*this).quantile(q);
}

SlotHist& SlotHist::operator+=(const SlotHist& o) {
  if (o.count == 0) return *this;
  if (count == 0) {
    *this = o;
    return *this;
  }
  min = std::min(min, o.min);
  max = std::max(max, o.max);
  count += o.count;
  sum += o.sum;
  for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += o.buckets[b];
  return *this;
}

runner::Json SlotHist::to_json() const {
  return obs::histogram_json(snapshot(*this));
}

StaStats& StaStats::operator+=(const StaStats& o) {
  tx_rounds += o.tx_rounds;
  collisions += o.collisions;
  frames_delivered += o.frames_delivered;
  frames_lost += o.frames_lost;
  mpdus_delivered += o.mpdus_delivered;
  data_bits += o.data_bits;
  control_bits_sent += o.control_bits_sent;
  control_bits_correct += o.control_bits_correct;
  data_airtime_us += o.data_airtime_us;
  hol_wait_slots += o.hol_wait_slots;
  inter_tx_gap_slots += o.inter_tx_gap_slots;
  return *this;
}

NetResult& NetResult::operator+=(const NetResult& o) {
  if (stations.empty()) {
    *this = o;
    return *this;
  }
  if (stations.size() != o.stations.size()) {
    throw std::invalid_argument(
        "NetResult::operator+=: station counts differ");
  }
  for (std::size_t i = 0; i < stations.size(); ++i) {
    stations[i] += o.stations[i];
  }
  airtime.data_us += o.airtime.data_us;
  airtime.ack_us += o.airtime.ack_us;
  airtime.control_us += o.airtime.control_us;
  airtime.idle_us += o.airtime.idle_us;
  airtime.collision_us += o.airtime.collision_us;
  elapsed_us += o.elapsed_us;
  contention_rounds += o.contention_rounds;
  tx_rounds += o.tx_rounds;
  collision_rounds += o.collision_rounds;
  events += o.events;
  obss_overlap_us += o.obss_overlap_us;
  return *this;
}

double NetResult::aggregate_throughput_mbps() const {
  if (elapsed_us <= 0.0) return 0.0;
  std::size_t bits = 0;
  for (const StaStats& s : stations) bits += s.data_bits;
  return static_cast<double>(bits) / elapsed_us;  // bits/us = Mbps
}

double NetResult::control_goodput_kbps() const {
  if (elapsed_us <= 0.0) return 0.0;
  std::size_t bits = 0;
  for (const StaStats& s : stations) bits += s.control_bits_correct;
  return 1e3 * static_cast<double>(bits) / elapsed_us;  // bits/ms = kbps
}

double NetResult::airtime_overhead() const {
  const double total = airtime.total_us();
  return total > 0.0 ? (total - airtime.data_us) / total : 0.0;
}

double NetResult::jain_fairness() const {
  if (stations.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const StaStats& s : stations) {
    const auto bits = static_cast<double>(s.data_bits);
    sum += bits;
    sum_sq += bits * bits;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(stations.size()) * sum_sq);
}

double NetResult::collision_rate() const {
  return contention_rounds > 0
             ? static_cast<double>(collision_rounds) /
                   static_cast<double>(contention_rounds)
             : 0.0;
}

runner::Json NetResult::to_json() const {
  runner::Json root = runner::Json::object();
  root.set("elapsed_us", elapsed_us);
  root.set("contention_rounds",
           static_cast<std::int64_t>(contention_rounds));
  root.set("tx_rounds", static_cast<std::int64_t>(tx_rounds));
  root.set("collision_rounds",
           static_cast<std::int64_t>(collision_rounds));
  root.set("events", static_cast<std::int64_t>(events));
  root.set("obss_overlap_us", obss_overlap_us);
  runner::Json air = runner::Json::object();
  air.set("data_us", airtime.data_us);
  air.set("ack_us", airtime.ack_us);
  air.set("control_us", airtime.control_us);
  air.set("idle_us", airtime.idle_us);
  air.set("collision_us", airtime.collision_us);
  root.set("airtime", std::move(air));
  runner::Json stas = runner::Json::array();
  for (const StaStats& s : stations) {
    runner::Json row = runner::Json::object();
    row.set("tx_rounds", static_cast<std::int64_t>(s.tx_rounds));
    row.set("collisions", static_cast<std::int64_t>(s.collisions));
    row.set("frames_delivered",
            static_cast<std::int64_t>(s.frames_delivered));
    row.set("frames_lost", static_cast<std::int64_t>(s.frames_lost));
    row.set("mpdus_delivered",
            static_cast<std::int64_t>(s.mpdus_delivered));
    row.set("data_bits", static_cast<std::int64_t>(s.data_bits));
    row.set("control_bits_sent",
            static_cast<std::int64_t>(s.control_bits_sent));
    row.set("control_bits_correct",
            static_cast<std::int64_t>(s.control_bits_correct));
    row.set("data_airtime_us", s.data_airtime_us);
    row.set("hol_wait_slots", s.hol_wait_slots.to_json());
    row.set("inter_tx_gap_slots", s.inter_tx_gap_slots.to_json());
    stas.push_back(std::move(row));
  }
  root.set("stations", std::move(stas));
  return root;
}

}  // namespace silence::net

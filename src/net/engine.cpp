#include "net/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "mac/aggregation.h"
#include "mac/frame.h"
#include "mac/timing.h"
#include "obs/flight/flight.h"
#include "obs/health/health.h"
#include "obs/obs.h"
#include "runner/seed.h"

namespace silence::net {

namespace {

// Arrival-process substream base: far above the station-indexed
// channel/noise/traffic families (0x100/0x200/0x300 + i) so it cannot
// collide with them at any realistic station count. Saturated scenarios
// never construct these streams, which keeps legacy runs' RNG usage
// untouched.
constexpr std::uint64_t kArrivalStream = 0x1000000;

// Simulated-µs quantities rendered into timeline args: fixed three
// decimals, locale-free, deterministic.
std::string fmt_us(double us) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

std::uint64_t to_slots(double us) {
  return static_cast<std::uint64_t>(std::llround(us / kSlotUs));
}

}  // namespace

void NetSim::init(const Scenario& scenario, std::uint64_t seed) {
  if (initialized_) {
    throw std::logic_error("NetSim::init: already initialized");
  }
  scenario.topology.validate();
  scenario.traffic.validate();
  if (scenario.duration_us <= 0.0) {
    throw std::invalid_argument("run_scenario: duration_us must be > 0");
  }
  if (scenario.mpdu_octets < 1 ||
      scenario.mpdu_octets + kMacOverheadOctets + kDelimiterOctets >
          kMaxAggregateOctets) {
    throw std::invalid_argument("run_scenario: mpdu_octets out of range");
  }
  scenario_ = scenario;
  saturated_ = scenario_.traffic.saturated();

  // Stations hold a CosSession referencing their own Link, so they are
  // pinned in memory. They all share one PHY workspace: even when PPDUs
  // overlap in simulated time across BSSs, the event loop processes
  // frame exchanges strictly sequentially.
  const int n = scenario_.topology.total_stations();
  stations_.reserve(static_cast<std::size_t>(n));
  station_bss_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    stations_.push_back(std::make_unique<Station>(
        scenario_, i, scenario_.topology.station_snr_db(i), seed, phy_ws_));
    station_bss_.push_back(scenario_.topology.station_bss(i));
  }
  // One fading step per logged stretch is built from one member's
  // channel and replayed on every member (advance_members), which is
  // exact only while all channels share a profile: link_config_for gives
  // every station scenario.profile.
  for (const auto& station : stations_) {
    if (station->channel().profile() != scenario_.profile) {
      throw std::logic_error("NetSim: station fading profile differs");
    }
  }
  bss_.resize(scenario_.topology.bss.size());
  for (std::size_t b = 0; b < bss_.size(); ++b) {
    bss_[b].channel = scenario_.topology.bss[b].channel;
    const int first = scenario_.topology.first_station(static_cast<int>(b));
    for (int i = 0; i < scenario_.topology.bss[b].num_stations; ++i) {
      bss_[b].members.push_back(first + i);
    }
  }

  // MAC timeline (pid-2 trace tracks) and per-station registry metrics —
  // both inert under SILENCE_OBS=OFF. Head-of-line and inter-TX times
  // are part of the deterministic result, so they are tracked
  // unconditionally: a frame becomes head-of-line when the station's
  // previous exchange ends (saturated) or when it reaches an empty
  // queue (open-loop), and waits until its winning TX starts;
  // collisions lengthen the wait, they don't reset it.
  timeline_ = std::make_unique<Timeline>(static_cast<std::size_t>(n),
                                         bss_.size());
  sta_metrics_ = std::make_unique<StationMetrics>(
      static_cast<std::size_t>(n),
      scenario_.metrics_station_cap > 0
          ? static_cast<std::size_t>(scenario_.metrics_station_cap)
          : StationMetrics::kDefaultCap);
  hol_since_.assign(static_cast<std::size_t>(n), 0.0);
  last_tx_start_.assign(static_cast<std::size_t>(n), -1.0);
  queue_len_.assign(static_cast<std::size_t>(n), 0);
  fading_cursor_.assign(static_cast<std::size_t>(n), 0);

  // Calendar horizon: the run plus slack for the final frame exchange
  // overrunning duration_us (anything further lands in the overflow
  // bucket).
  queue_ = std::make_unique<CalendarQueue>(scenario_.duration_us + 70e3);
  pregenerate_arrivals(seed);
  for (std::size_t b = 0; b < bss_.size(); ++b) {
    queue_->push(0.0, EventKind::kRoundStart, static_cast<int>(b), -1);
  }
  initialized_ = true;
}

void NetSim::pregenerate_arrivals(std::uint64_t seed) {
  if (saturated_) return;  // closed loop: no arrival events at all
  const TrafficModel& tm = scenario_.traffic;
  const double mean_arrival_us = 1e6 / tm.arrival_rate_fps;
  for (int i = 0; i < num_stations(); ++i) {
    // One private arrival stream per station, drawn entirely at init so
    // mid-run handlers never touch it: the event schedule is fixed
    // before the first event pops.
    Rng rng(runner::substream_seed(
        seed, kArrivalStream + static_cast<std::uint64_t>(i)));
    const int b = station_bss_[static_cast<std::size_t>(i)];
    if (tm.kind == TrafficModel::Kind::kPoisson) {
      double t = 0.0;
      while (true) {
        t += -mean_arrival_us * std::log(1.0 - rng.uniform());
        if (t >= scenario_.duration_us) break;
        queue_->push(t, EventKind::kArrival, b, i);
      }
    } else {  // on-off bursty: Poisson arrivals during exponential ON
      double t = 0.0;
      bool on = true;
      while (t < scenario_.duration_us) {
        const double span =
            -(on ? tm.mean_on_us : tm.mean_off_us) *
            std::log(1.0 - rng.uniform());
        if (on) {
          const double window_end =
              std::min(t + span, scenario_.duration_us);
          double s = t;
          while (true) {
            s += -mean_arrival_us * std::log(1.0 - rng.uniform());
            if (s >= window_end) break;
            queue_->push(s, EventKind::kArrival, b, i);
          }
        }
        t += span;
        on = !on;
      }
    }
  }
}

void NetSim::advance_members(BssState& bss, double us, int except) {
  bss.fading_steps.push_back(
      stations_[static_cast<std::size_t>(bss.members.front())]
          ->channel()
          .step(1e-6 * us));
  if (except < 0) return;
  std::size_t& cursor = fading_cursor_[static_cast<std::size_t>(except)];
  if (cursor + 1 != bss.fading_steps.size()) {
    // Its direct advances would otherwise run ahead of older steps.
    throw std::logic_error("NetSim: excluded station was not caught up");
  }
  cursor = bss.fading_steps.size();
}

Station& NetSim::caught_up(int sta) {
  const auto s = static_cast<std::size_t>(sta);
  Station& station = *stations_[s];
  const std::vector<FadingStep>& steps =
      bss_[static_cast<std::size_t>(station_bss_[s])].fading_steps;
  std::size_t& cursor = fading_cursor_[s];
  if (cursor == steps.size()) return station;
  OBS_COUNT_N("net.fading_steps", steps.size() - cursor);
  for (; cursor < steps.size(); ++cursor) station.advance(steps[cursor]);
  return station;
}

bool NetSim::done() const {
  if (!initialized_) return false;
  for (const BssState& bss : bss_) {
    if (!bss.finished) return false;
  }
  return true;
}

void NetSim::step() {
  const Event e = queue_->pop();
  now_us_ = e.t_us;
  ++events_;
  switch (e.kind) {
    case EventKind::kArrival:
      on_arrival(e.sta, e.t_us);
      break;
    case EventKind::kRoundStart:
      start_round(e.bss, e.t_us);
      break;
    case EventKind::kBackoffExpiry:
      on_backoff_expiry(e.bss, e.t_us);
      break;
    case EventKind::kTxEnd:
      on_tx_end(e.bss, e.t_us);
      break;
  }
}

void NetSim::step_until(double t_us) {
  if (!initialized_) throw std::logic_error("NetSim::step_until: not initialized");
  while (!queue_->empty() && !done() && queue_->next_time() <= t_us) {
    step();
  }
  // An open-loop run can drain the queue with every BSS dormant (no
  // arrival left to wake anyone). Once the caller's clock passes the
  // scenario horizon there is nothing left to simulate, so converge the
  // same way run() does — otherwise done() would stay false forever and
  // the documented `while (!sim.done()) sim.step_until(t)` driver
  // pattern would never terminate.
  if (queue_->empty() && !done() && t_us >= scenario_.duration_us) {
    finish_dormant();
  }
}

void NetSim::run() {
  if (!initialized_) throw std::logic_error("NetSim::run: not initialized");
  while (!queue_->empty() && !done()) step();
  if (!done()) finish_dormant();
}

void NetSim::on_arrival(int sta, double t) {
  const auto s = static_cast<std::size_t>(sta);
  ++queue_len_[s];
  // A frame reaching an empty queue becomes head-of-line now: its HOL
  // wait clock starts at the arrival, so queueing delay under open-loop
  // traffic flows into the same hol_wait_slots percentiles.
  if (queue_len_[s] == 1) hol_since_[s] = t;
  BssState& bss = bss_[static_cast<std::size_t>(station_bss_[s])];
  if (bss.finished) return;
  if (bss.dormant && !bss.wake_pending) {
    bss.wake_pending = true;
    queue_->push(t, EventKind::kRoundStart, station_bss_[s], -1);
  }
}

void NetSim::start_round(int b, double t) {
  BssState& bss = bss_[static_cast<std::size_t>(b)];
  if (bss.finished) return;
  if (bss.dormant) {
    // Waking up: the whole sleep was idle medium time, and the members'
    // fading processes evolved through it.
    const double gap = t - bss.dormant_since;
    if (gap > 0.0) {
      result_.airtime.idle_us += gap;
      advance_members(bss, gap, -1);
    }
    bss.dormant = false;
    bss.wake_pending = false;
  }
  if (t >= scenario_.duration_us) {
    bss.finished = true;
    bss.end_us = t;
    return;
  }
  bss.contenders.clear();
  for (const int i : bss.members) {
    if (has_frame(i)) bss.contenders.push_back(i);
  }
  if (bss.contenders.empty()) {
    bss.dormant = true;
    bss.dormant_since = t;
    return;
  }

  ++result_.contention_rounds;
  OBS_COUNT("net.rounds");
  // Idle period: DIFS, then the smallest backoff counter many slots.
  int min_counter = std::numeric_limits<int>::max();
  for (const int i : bss.contenders) {
    min_counter = std::min(
        min_counter, stations_[static_cast<std::size_t>(i)]->backoff().counter());
  }
  OBS_HIST("net.contended_slots", min_counter);
  const double idle = backoff_expiry_delay_us(min_counter);
  if (timeline_->on()) {
    timeline_->medium_begin(static_cast<std::size_t>(b), "medium.idle", t);
    timeline_->medium_end(static_cast<std::size_t>(b), "medium.idle",
                          t + idle);
    for (const int i : bss.contenders) {
      timeline_->sta_begin(
          static_cast<std::size_t>(i), "mac.backoff", t,
          "{\"counter\": " +
              std::to_string(
                  stations_[static_cast<std::size_t>(i)]->backoff().counter()) +
              "}");
      timeline_->sta_end(static_cast<std::size_t>(i), "mac.backoff",
                         t + idle);
    }
  }
  bss.min_counter = min_counter;
  bss.idle_us = idle;
  queue_->push(t + idle, EventKind::kBackoffExpiry, b, -1);
}

void NetSim::on_backoff_expiry(int b, double t) {
  BssState& bss = bss_[static_cast<std::size_t>(b)];
  result_.airtime.idle_us += bss.idle_us;
  advance_members(bss, bss.idle_us, -1);

  std::vector<int> winners;
  for (const int i : bss.contenders) {
    Station& sta = *stations_[static_cast<std::size_t>(i)];
    sta.backoff().consume(bss.min_counter);
    if (sta.backoff().expired()) winners.push_back(i);
  }

  if (winners.size() == 1) {
    const int w = winners.front();
    const double air = caught_up(w).nominal_airtime_us();
    const double tail = kSifsUs + ack_airtime_us();
    bss.winner = w;
    bss.tx_start = t;
    bss.air_us = air;
    bss.obss_frac = 0.0;
    bss.obss_raw_us = 0.0;
    bss.blind.clear();
    // Hidden terminals: a contender that cannot hear the winner keeps
    // counting down instead of freezing, and blind-fires if its counter
    // runs out inside the winner's PPDU.
    for (const int h : bss.contenders) {
      if (h == w) continue;
      const int residual =
          stations_[static_cast<std::size_t>(h)]->backoff().counter();
      if (residual <= 0) continue;
      if (scenario_.topology.hears(h, w)) continue;
      const double t_fire = t + residual * kSlotUs;
      if (t_fire < t + air) {
        bss.blind.push_back({h, t_fire, caught_up(h).nominal_airtime_us()});
      }
    }
    prune_intervals(t);
    // Open the exchange: catch up on other cells' PPDUs already on the
    // air, then publish this round's own energy — the winner's PPDU and
    // any hidden blind fire (neighbor cells see the stray burst like
    // any other PPDU; the same-BSS victim accounts it via bss.blind at
    // TX end, and register_interval skips own-BSS victims, so nothing
    // double-counts). Later-starting overlappers credit this exchange
    // when they register; the PHY still runs at TX end, once the
    // accumulated fraction is complete.
    for (const TxInterval& iv : live_tx_) {
      if (iv.bss != b) accumulate_overlap(bss, iv);
    }
    register_interval({b, w, bss.channel, t, t + air});
    for (const BlindFire& bf : bss.blind) {
      register_interval(
          {b, bf.sta, bss.channel, bf.t_fire, bf.t_fire + bf.air_us});
    }
    queue_->push(t + (air + tail), EventKind::kTxEnd, b, w);
    return;
  }

  // Collision: the medium is busy for the longest collider's frame,
  // then every collider times out waiting for its (block-)ACK.
  double longest = 0.0;
  for (const int i : winners) {
    longest = std::max(longest, caught_up(i).nominal_airtime_us());
  }
  const double busy = longest + kSifsUs + ack_airtime_us();
  const double busy_start = t;
  const double busy_end = t + busy;
  result_.airtime.collision_us += busy;
  ++result_.collision_rounds;
  OBS_COUNT("net.collision_rounds");
  FLIGHT_EVENT("net.collision", -1, winners.size(), busy_end, busy, 0);
  if (timeline_->on()) {
    const std::string args =
        "{\"colliders\": " + std::to_string(winners.size()) + "}";
    timeline_->medium_begin(static_cast<std::size_t>(b), "medium.collision",
                            busy_start, args);
    timeline_->medium_end(static_cast<std::size_t>(b), "medium.collision",
                          busy_start + busy);
    for (const int i : winners) {
      timeline_->sta_begin(static_cast<std::size_t>(i), "mac.collision",
                           busy_start, args);
      timeline_->sta_end(static_cast<std::size_t>(i), "mac.collision",
                         busy_start + busy);
    }
  }
  for (const int i : winners) {
    stations_[static_cast<std::size_t>(i)]->on_collision();
    sta_metrics_->collision(static_cast<std::size_t>(i));
  }
  advance_members(bss, busy, -1);
  // The garbled burst still radiates into overlapping cells (no reader
  // on this side: a collision round runs no PHY of its own).
  prune_intervals(t);
  register_interval({b, -1, bss.channel, t, t + longest});
  queue_->push(busy_end, EventKind::kRoundStart, b, -1);
}

void NetSim::accumulate_overlap(BssState& victim, const TxInterval& iv) {
  const double weight =
      scenario_.topology.channel_weight(victim.channel, iv.channel);
  if (weight <= 0.0) return;
  const double lo = std::max(victim.tx_start, iv.start_us);
  const double hi = std::min(victim.tx_start + victim.air_us, iv.end_us);
  if (hi <= lo) return;
  victim.obss_frac += weight * (hi - lo) / victim.air_us;
  victim.obss_raw_us += hi - lo;
}

void NetSim::register_interval(const TxInterval& iv) {
  // Credit every other cell's in-flight exchange right now; the
  // schedule of `iv` is already fixed, so geometry against windows
  // extending into the future is exact. Victims never read the registry
  // after the fact, which is what lets prune_intervals() drop an
  // interval the moment it is entirely in the past.
  for (std::size_t v = 0; v < bss_.size(); ++v) {
    if (static_cast<int>(v) == iv.bss) continue;
    BssState& victim = bss_[v];
    if (victim.winner < 0) continue;
    accumulate_overlap(victim, iv);
  }
  live_tx_.push_back(iv);
}

void NetSim::prune_intervals(double t) {
  // Safe because overlap is accounted when intervals register (see
  // register_interval): an interval already ended at `t` can only be
  // scanned by an exchange opening at >= t, with zero overlap.
  std::erase_if(live_tx_,
                [t](const TxInterval& iv) { return iv.end_us <= t; });
}

void NetSim::on_tx_end(int b, double t) {
  BssState& bss = bss_[static_cast<std::size_t>(b)];
  const int w = bss.winner;
  const auto ws = static_cast<std::size_t>(w);
  const double tx_start = bss.tx_start;
  const double tail = kSifsUs + ack_airtime_us();

  const std::uint64_t hol_slots = to_slots(tx_start - hol_since_[ws]);
  stations_[ws]->record_hol_wait(hol_slots);
  OBS_HIST("net.sta.hol_wait_slots", hol_slots);
  sta_metrics_->hol_wait(ws, hol_slots);
  if (last_tx_start_[ws] >= 0.0) {
    const std::uint64_t gap_slots = to_slots(tx_start - last_tx_start_[ws]);
    stations_[ws]->record_tx_gap(gap_slots);
    OBS_HIST("net.sta.inter_tx_gap_slots", gap_slots);
    sta_metrics_->tx_gap(ws, gap_slots);
  }
  last_tx_start_[ws] = tx_start;

  // Interference on this exchange: OBSS overlap from other cells
  // (accumulated onto the exchange as each overlapping interval
  // registered) plus any same-BSS hidden terminal that blind-fired into
  // the PPDU. The overlap fraction becomes the pulse interferer's
  // symbol-hit probability; with no overlap the link stays untouched
  // (and so do its RNG streams — the legacy-identity requirement).
  double fraction = bss.obss_frac;
  result_.obss_overlap_us += bss.obss_raw_us;
  for (const BlindFire& bf : bss.blind) {
    const double overlap =
        std::min(tx_start + bss.air_us, bf.t_fire + bf.air_us) - bf.t_fire;
    fraction += overlap / bss.air_us;
  }
  std::optional<PulseInterferer> interferer;
  if (fraction > 0.0) {
    PulseInterferer pulse;
    pulse.symbol_hit_probability = fraction < 1.0 ? fraction : 1.0;
    pulse.pulse_power = scenario_.topology.obss_pulse_power;
    interferer = pulse;
  }

  // The session advances the winner's own link by the frame airtime, and
  // the SIFS+ACK tail below is direct too; everyone else gets the
  // exchange as one logged step.
  const Station::TxOutcome tx = caught_up(w).transmit(interferer);
  if (tx.data_airtime_us != bss.air_us) {
    // TxEnd was scheduled off nominal_airtime_us(); nothing may advance
    // the winner's link between expiry and here, so the actual airtime
    // must match to the bit.
    throw std::logic_error("NetSim: scheduled airtime drifted from actual");
  }
  result_.airtime.data_us += tx.data_airtime_us;
  result_.airtime.ack_us += ack_airtime_us();
  result_.airtime.idle_us += kSifsUs;
  ++result_.tx_rounds;
  OBS_COUNT("net.tx_rounds");
  if (!tx.data_ok) OBS_COUNT("net.frames_lost");
  sta_metrics_->tx_data_bits(ws, tx.data_bits);
  if (timeline_->on()) {
    const double tx_end = tx_start + tx.data_airtime_us;
    timeline_->medium_begin(static_cast<std::size_t>(b), "medium.busy",
                            tx_start);
    timeline_->medium_end(static_cast<std::size_t>(b), "medium.busy",
                          tx_end + tail);
    timeline_->sta_instant(ws, "mac.win", tx_start);
    timeline_->sta_begin(
        ws, "mac.tx", tx_start,
        "{\"airtime_us\": " + fmt_us(tx.data_airtime_us) +
            ", \"data_ok\": " + (tx.data_ok ? "true" : "false") + "}");
    timeline_->sta_end(ws, "mac.tx", tx_end);
    timeline_->sta_instant(
        ws, "mac.ampdu", tx_end,
        "{\"mpdus_ok\": " + std::to_string(tx.mpdus_delivered) +
            ", \"mpdus\": " + std::to_string(tx.mpdus_sent) + "}");
    timeline_->sta_instant(
        ws, "cos.control", tx_end,
        "{\"bits_sent\": " + std::to_string(tx.control_bits_sent) +
            ", \"bits_correct\": " + std::to_string(tx.control_bits_correct) +
            "}");
  }
  FLIGHT_EVENT("net.tx", w, 1, t, tx.data_airtime_us, tx.data_ok);
  stations_[ws]->advance(1e-6 * tail);
  advance_members(bss, tx.data_airtime_us + tail, w);

  // Hidden blind-firers: each burns a collision (its frame stays
  // queued) and, when its stray PPDU outlives the winner's exchange,
  // extends the round — the extension is wasted (collision) airtime.
  double round_end = t;
  for (const BlindFire& bf : bss.blind) {
    stations_[static_cast<std::size_t>(bf.sta)]->on_collision();
    sta_metrics_->collision(static_cast<std::size_t>(bf.sta));
    OBS_COUNT("net.hidden_fires");
    FLIGHT_EVENT("net.hidden_fire", bf.sta, 1, bf.t_fire, bf.air_us, 0);
    if (timeline_->on()) {
      timeline_->sta_begin(static_cast<std::size_t>(bf.sta), "mac.hidden_tx",
                           bf.t_fire);
      timeline_->sta_end(static_cast<std::size_t>(bf.sta), "mac.hidden_tx",
                         bf.t_fire + bf.air_us);
    }
    const double bf_end = bf.t_fire + (bf.air_us + tail);
    if (bf_end > round_end) {
      const double extension = bf_end - round_end;
      result_.airtime.collision_us += extension;
      advance_members(bss, extension, -1);
      round_end = bf_end;
    }
  }

  if (!saturated_) --queue_len_[ws];
  hol_since_[ws] = round_end;  // next frame queues behind this exchange
  bss.winner = -1;
  bss.obss_frac = 0.0;
  bss.obss_raw_us = 0.0;
  bss.blind.clear();
  queue_->push(round_end, EventKind::kRoundStart, b, -1);
}

void NetSim::finish_dormant() {
  for (BssState& bss : bss_) {
    if (bss.finished) continue;
    if (!bss.dormant) {
      throw std::logic_error("NetSim: stalled BSS with pending work");
    }
    const double gap = scenario_.duration_us - bss.dormant_since;
    if (gap > 0.0) {
      result_.airtime.idle_us += gap;
      advance_members(bss, gap, -1);
    }
    bss.dormant = false;
    bss.finished = true;
    bss.end_us = scenario_.duration_us;
  }
}

NetResult NetSim::result() {
  if (!initialized_) throw std::logic_error("NetSim::result: not initialized");
  if (!finalized_) {
    run();
    double elapsed = 0.0;
    for (const BssState& bss : bss_) elapsed = std::max(elapsed, bss.end_us);
    result_.elapsed_us = elapsed;
    result_.events = events_;
    result_.stations.reserve(stations_.size());
    for (const auto& s : stations_) {
      const StaStats& stats = s->stats();
      OBS_HIST("net.sta.data_bits", stats.data_bits);
      OBS_HIST("net.sta.control_bits_correct", stats.control_bits_correct);
      OBS_HIST("net.sta.tx_rounds", stats.tx_rounds);
      result_.stations.push_back(stats);
    }
    obs::health::maybe_trace_counters();
    // Nothing reads a channel once the run is over: drop the replay logs.
    for (BssState& bss : bss_) bss.fading_steps = std::vector<FadingStep>();
    finalized_ = true;
  }
  return result_;
}

}  // namespace silence::net

// The event-driven network core behind run_scenario: a stateful NetSim
// that replaces the old slotted single-AP loop with a calendar queue of
// timestamped arrival / round-start / backoff-expiry / TX-end events
// (net/events.h), so multiple BSSs contend concurrently, their PPDUs
// overlap in simulated time, and open-loop traffic models drive per-
// station queues.
//
// Per BSS the DCF round structure is unchanged — DIFS + smallest backoff
// counter of idle, then one winner's frame exchange or a collision — and
// on a single-BSS saturated scenario the engine reproduces the legacy
// slotted loop's NetResult byte-for-byte: identical arithmetic
// expressions, identical per-station fading-advance call sequences,
// and zero extra RNG draws (arrival streams exist only for open-loop
// traffic; interference draws only when an overlap actually lands).
//
// What multi-BSS adds on top:
//  - OBSS interference: every PPDU put on the air (winner frames,
//    collision bursts, hidden blind fires) registers a (channel,
//    interval) on a shared registry, crediting each other cell's
//    in-flight exchange with the overlap as it registers; an exchange
//    opening later scans the still-live intervals instead. Both
//    directions of an overlap are therefore counted no matter how the
//    rounds interleave — a fast cell completing whole rounds inside a
//    slow cell's PPDU still charges the slow victim. At TX end the
//    accumulated fraction (weighted 1 for co-channel,
//    Topology::adjacent_leak for adjacent channels) becomes a
//    PulseInterferer on that one exchange — the paper's Fig. 10(d)
//    threat model, now emergent from topology instead of injected.
//  - Hidden terminals: a same-BSS contender that cannot hear the winner
//    (Topology::carrier_sense) keeps counting down and blind-fires into
//    the winner's PPDU; the victim sees the overlap as interference,
//    the firer burns a collision, the round extends to cover the stray
//    PPDU, and the stray energy radiates into overlapping cells like
//    any other PPDU.
//  - Traffic: saturated stations contend always; poisson / on-off
//    stations contend while their arrival queue is non-empty, and a BSS
//    with nothing to send sleeps until an arrival wakes it. Queueing
//    delay flows into the existing hol_wait_slots percentiles (the HOL
//    clock starts when a frame reaches the head of an empty queue).
//
// Fading is advanced lazily. Every stretch of medium time a cell's
// members live through (idle, an exchange, a collision, a dormant gap)
// is appended to that BSS's step log instead of being applied to each
// member at once. A log entry is a FadingStep: the stretch's Jakes
// correlation and per-tap innovation sigmas, built once from one
// member's channel (every station has the scenario's profile, checked
// in init), so a replay draws its Gaussians without recomputing J0. A
// station replays the steps it has not yet seen, in order, through one
// accessor (caught_up) right before its channel is read: the airtime
// lookup at backoff expiry and transmit(). Each channel thus draws the
// same Gaussians, in the same order and on its own RNG, with the same
// coefficients as if every member were advanced at every step, so every
// read returns the same bits; steps a station never needs again (it
// stops contending, or the run ends) are never replayed. The winner's
// own frame airtime and SIFS+ACK advances stay direct.
//
// Determinism: the calendar queue pops in (timestamp, kind, bss, sta,
// FIFO) order and every handler is sequential, so the whole simulation
// is a pure function of (scenario, seed) at any sweep thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/events.h"
#include "net/scenario.h"
#include "net/station.h"
#include "net/timeline.h"

namespace silence::net {

class NetSim {
 public:
  NetSim() = default;
  NetSim(const Scenario& scenario, std::uint64_t seed) {
    init(scenario, seed);
  }
  // Sessions point at phy_ws_, so a NetSim stays where it was built.
  NetSim(const NetSim&) = delete;
  NetSim& operator=(const NetSim&) = delete;

  // Builds stations, seeds the arrival streams and schedules the first
  // round of every BSS. Throws std::invalid_argument on a malformed
  // scenario. Re-initializing an already-used sim throws.
  void init(const Scenario& scenario, std::uint64_t seed);

  // Processes events until simulated time passes `t_us` (every event
  // with timestamp <= t_us runs), leaving mid-run state observable via
  // the accessors below. Rate controllers (ROADMAP item 2) hook in
  // here: step, read, adjust, repeat. When the queue drains with every
  // BSS dormant (open-loop traffic that ran out of arrivals) and `t_us`
  // has reached the scenario horizon, the run is finished off so the
  // `while (!sim.done()) sim.step_until(t)` driver pattern terminates.
  void step_until(double t_us);

  // Runs the scenario to completion (duration reached on every BSS).
  void run();

  bool done() const;
  // Timestamp of the last processed event.
  double now_us() const { return now_us_; }
  std::uint64_t events_processed() const { return events_; }

  int num_stations() const { return static_cast<int>(stations_.size()); }
  int num_bss() const { return static_cast<int>(bss_.size()); }
  // Mid-run per-station views (valid after init()).
  const StaStats& station_stats(int i) const {
    return stations_[static_cast<std::size_t>(i)]->stats();
  }
  std::size_t station_queue_len(int i) const {
    return queue_len_[static_cast<std::size_t>(i)];
  }

  // Completes the run if needed, finalizes the per-station metrics
  // (idempotent) and returns the result.
  NetResult result();

 private:
  struct BlindFire {
    int sta = -1;        // the hidden contender
    double t_fire = 0.0; // when its counter would have expired
    double air_us = 0.0; // its stray PPDU's airtime
  };

  // Per-BSS scheduler state: the current round (between round-start and
  // backoff-expiry), the in-flight exchange (between expiry and TX-end)
  // and the dormancy/completion lifecycle.
  struct BssState {
    int channel = 0;
    std::vector<int> members;     // global station indices, ascending
    std::vector<int> contenders;  // this round's backlogged members
    int min_counter = 0;
    double idle_us = 0.0;
    int winner = -1;
    double tx_start = 0.0;
    double air_us = 0.0;
    // OBSS overlap credited to the in-flight exchange, accumulated as
    // each overlapping interval registers (and from already-live
    // intervals when the exchange opens) — never read back out of the
    // registry, so pruning can be aggressive. `obss_frac` is the
    // channel-weighted overlap divided by this exchange's airtime (the
    // pulse-interferer hit probability); `obss_raw_us` the unweighted
    // overlap feeding NetResult::obss_overlap_us.
    double obss_frac = 0.0;
    double obss_raw_us = 0.0;
    std::vector<BlindFire> blind;
    // Fading steps owed to every member, in the order the medium time
    // passed, each holding its coefficients (rho and per-tap sigma);
    // fading_cursor_ marks how far each member has replayed. One entry
    // per idle stretch, exchange, collision, blind-fire extension or
    // dormant gap, kept until the run is finalized.
    std::vector<FadingStep> fading_steps;
    bool dormant = false;
    bool wake_pending = false;
    double dormant_since = 0.0;
    bool finished = false;
    double end_us = 0.0;
  };

  // A PPDU currently on the air, visible to other BSSs as potential
  // OBSS interference. `sta` is -1 for a collision burst.
  struct TxInterval {
    int bss = 0;
    int sta = -1;
    int channel = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  void step();  // process exactly one event
  void start_round(int b, double t);
  void on_backoff_expiry(int b, double t);
  void on_tx_end(int b, double t);
  void on_arrival(int sta, double t);
  void finish_dormant();

  bool has_frame(int sta) const {
    return saturated_ || queue_len_[static_cast<std::size_t>(sta)] > 0;
  }
  // Logs `us` of medium time that every member of `bss` lives through,
  // as one step built from its first member's channel. `except` (or -1)
  // is a member that was just caught up and advanced directly through
  // the same stretch; its cursor skips the new step.
  void advance_members(BssState& bss, double us, int except);
  // The one way to a station whose channel is about to be read: replays
  // its BSS's logged steps past its cursor, in order, then returns it.
  Station& caught_up(int sta);
  // Credits `victim`'s in-flight exchange with its channel-weighted
  // overlap against `iv` (no-op when the weight or overlap is zero).
  void accumulate_overlap(BssState& victim, const TxInterval& iv);
  // Publishes a PPDU: credits every other BSS's in-flight exchange with
  // the overlap now, then adds the interval to the registry so
  // exchanges opening later can scan it. Accounting at registration
  // time (plus the open-exchange scan) means both directions of an
  // overlap are always counted, however the two rounds interleave —
  // including a fast cell completing whole rounds inside a slow cell's
  // PPDU.
  void register_interval(const TxInterval& iv);
  void prune_intervals(double t);
  void pregenerate_arrivals(std::uint64_t seed);

  Scenario scenario_;
  // The PHY scratch every station's session receives through. Owned per
  // run rather than the thread's default_phy_workspace(): see the
  // "One PHY chain" note in docs/ARCHITECTURE.md.
  PhyWorkspace phy_ws_;
  std::vector<std::unique_ptr<Station>> stations_;
  std::vector<int> station_bss_;
  std::vector<BssState> bss_;
  std::unique_ptr<CalendarQueue> queue_;
  std::unique_ptr<Timeline> timeline_;
  std::unique_ptr<StationMetrics> sta_metrics_;
  std::vector<double> hol_since_;
  std::vector<double> last_tx_start_;
  std::vector<std::size_t> queue_len_;
  // Per station: how many of its BSS's fading_steps it has replayed.
  std::vector<std::size_t> fading_cursor_;
  std::vector<TxInterval> live_tx_;
  NetResult result_;
  double now_us_ = 0.0;
  std::uint64_t events_ = 0;
  bool saturated_ = true;
  bool initialized_ = false;
  bool finalized_ = false;
};

}  // namespace silence::net

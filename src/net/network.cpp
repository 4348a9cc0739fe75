// run_scenario as a thin wrapper over the event-driven net::NetSim
// (net/engine.h): construct, run to completion, return the finalized
// result. Kept as the one-shot entry point for benches and sweeps;
// callers that need mid-run state (step_until + per-station accessors)
// use NetSim directly.
#include "net/engine.h"
#include "obs/obs.h"

namespace silence::net {

NetResult run_scenario(const Scenario& scenario, std::uint64_t seed) {
  OBS_SPAN("net.scenario");
  NetSim sim(scenario, seed);
  sim.run();
  return sim.result();
}

}  // namespace silence::net

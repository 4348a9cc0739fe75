// Compile-level test of the SILENCE_OBS=OFF contract: with observability
// forced off for this translation unit the macros must expand to nothing —
// no registry calls, no argument evaluation, no interned names. This test
// lives in its own binary (obs_off_tests) so the process-wide registry is
// provably untouched by anything else.
#define SILENCE_OBS_FORCE_OFF 1
#include "obs/obs.h"

#include <gtest/gtest.h>

#include "obs/flight/flight.h"
#include "obs/health/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

static_assert(SILENCE_OBS_ON == 0,
              "SILENCE_OBS_FORCE_OFF must disable instrumentation");

namespace silence::obs {
namespace {

int instrumented_hot_path(int x) {
  OBS_SPAN("off_test.hot");
  OBS_COUNT("off_test.calls");
  OBS_COUNT_N("off_test.items", x);
  OBS_HIST("off_test.value", x);
  OBS_GAUGE_SET("off_test.gauge", x);
  return x * 2;
}

TEST(ObsOffTest, MacrosDoNotEvaluateArguments) {
  int evaluations = 0;
  OBS_COUNT_N("off_test.side_effect", ++evaluations);
  OBS_HIST("off_test.side_effect_h", ++evaluations);
  OBS_GAUGE_SET("off_test.side_effect_g", ++evaluations);
  EXPECT_EQ(evaluations, 0);
}

TEST(ObsOffTest, InstrumentedCodeRegistersNothing) {
  EXPECT_EQ(instrumented_hot_path(21), 42);
  // The runtime library still links (benches call Registry/Tracer
  // unconditionally) but this binary's instrumentation never touched it.
  EXPECT_TRUE(Registry::global().snapshot().empty());
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST(ObsOffTest, FlightEventCompilesOutAndDoesNotEvaluate) {
  // Even with an active recording, an OFF-mode FLIGHT_EVENT records
  // nothing and never evaluates its arguments.
  flight::TrialLabel label;
  label.sweep = "off_test";
  flight::TrialRecording rec(label, 1, runner::Json::object());
  int evaluations = 0;
  FLIGHT_EVENT("off_test.stage", ++evaluations, ++evaluations, ++evaluations,
               ++evaluations, ++evaluations);
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(rec.size(), 0u);

  // The runtime classes stay fully functional for tooling (silence_diag
  // parses artifacts in OFF builds too): manual record() still works.
  flight::Event event;
  event.stage = "off_test.manual";
  rec.record(event);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(flight::TrialRecording::active(), &rec);
}

TEST(ObsOffTest, HealthMacrosCompileOutAndDoNotEvaluate) {
  int evaluations = 0;
  HEALTH_COUNT(kPlans);
  HEALTH_COUNT_N(kBitsPlanned, ++evaluations);
  HEALTH_WATERFALL(kSnr, ++evaluations, ++evaluations);
  HEALTH_SCORE(++evaluations != 0, ++evaluations, ++evaluations);
  HEALTH_NABLA_EVM(++evaluations);
  EXPECT_EQ(evaluations, 0);
  // The health runtime still links (the runner's sidecar plumbing
  // calls it unconditionally) but its cells stay empty, so an OFF
  // build's sidecar never has a `health` section.
  EXPECT_TRUE(health::snapshot().empty());
  // Pure helpers keep working — tooling parses sidecars in OFF builds.
  EXPECT_EQ(health::quantize(0.5, 256.0), 128u);
  EXPECT_GE(health::quantize_score(2.0, 1.0), health::kScoreThreshold);
}

TEST(ObsOffTest, SpansAreScopelessStatements) {
  // OBS_SPAN must remain usable as a plain statement in OFF builds —
  // including inside an un-braced if, where a declaration would not
  // compile.
  if (instrumented_hot_path(1) == 2) OBS_SPAN("off_test.unbraced");
  SUCCEED();
}

}  // namespace
}  // namespace silence::obs

#include "obs/flight/flight.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include "runner/json.h"

namespace silence::obs::flight {
namespace {

using silence::runner::Json;

TrialLabel test_label() {
  TrialLabel label;
  label.sweep = "flight_test";
  label.point_index = 2;
  label.trial_index = 7;
  return label;
}

Json test_spec() {
  Json spec = Json::object();
  spec.set("snr_db", 9.2);
  spec.set("trials", 5);
  return spec;
}

Event make_event(std::uint64_t u) {
  Event event;
  event.stage = "test.stage";
  event.symbol = static_cast<std::int32_t>(u);
  event.subcarrier = 3;
  event.a = 1.5;
  event.b = 2.5;
  event.u = u;
  return event;
}

TEST(FlightRecording, HoldsEventsInOrderBeforeOverflow) {
  TrialRecording rec(test_label(), 1, test_spec(), /*capacity=*/8);
  for (std::uint64_t i = 0; i < 5; ++i) rec.record(make_event(i));
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.evicted(), 0u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].u, i);
}

TEST(FlightRecording, OverflowEvictsOldestFirst) {
  TrialRecording rec(test_label(), 1, test_spec(), /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) rec.record(make_event(i));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.evicted(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // The newest 4 events survive, oldest-to-newest.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].u, 6 + i);
}

TEST(FlightRecording, TriggerIsIdempotentPerReason) {
  TrialRecording rec(test_label(), 1, test_spec());
  EXPECT_FALSE(rec.triggered());
  rec.trigger("crc_fail");
  rec.trigger("crc_fail");
  rec.trigger("false_alarm");
  EXPECT_TRUE(rec.triggered());
  ASSERT_EQ(rec.reasons().size(), 2u);
  EXPECT_EQ(rec.reasons()[0], "crc_fail");
  EXPECT_EQ(rec.reasons()[1], "false_alarm");
}

TEST(FlightRecording, ActiveSlotNestsAndRestores) {
  EXPECT_EQ(TrialRecording::active(), nullptr);
  {
    TrialRecording outer(test_label(), 1, test_spec());
    EXPECT_EQ(TrialRecording::active(), &outer);
    {
      TrialRecording inner(test_label(), 2, test_spec());
      EXPECT_EQ(TrialRecording::active(), &inner);
    }
    EXPECT_EQ(TrialRecording::active(), &outer);
  }
  EXPECT_EQ(TrialRecording::active(), nullptr);
}

#if SILENCE_OBS_ON
TEST(FlightRecording, MacroRecordsIntoActiveRecordingOnly) {
  // No active recording: the macro is a no-op, not a crash.
  FLIGHT_EVENT("macro.stage", 1, 2, 3.0, 4.0, 5);
  TrialRecording rec(test_label(), 1, test_spec());
  FLIGHT_EVENT("macro.stage", 1, 2, 3.0, 4.0, 5);
  ASSERT_EQ(rec.size(), 1u);
  const auto events = rec.events();
  EXPECT_STREQ(events[0].stage, "macro.stage");
  EXPECT_EQ(events[0].symbol, 1);
  EXPECT_EQ(events[0].subcarrier, 2);
  EXPECT_EQ(events[0].a, 3.0);
  EXPECT_EQ(events[0].b, 4.0);
  EXPECT_EQ(events[0].u, 5u);
}
#endif

TEST(FlightArtifact, SchemaCarriesEverythingForReplay) {
  TrialRecording rec(test_label(), 0xdeadbeefcafef00dULL, test_spec(),
                     /*capacity=*/4);
  for (std::uint64_t i = 0; i < 6; ++i) rec.record(make_event(i));
  rec.trigger("crc_fail");
  Json result = Json::object();
  result.set("crc_ok", false);
  rec.set_result(std::move(result));

  const Json artifact = rec.artifact();
  ASSERT_TRUE(artifact.is_object());
  EXPECT_EQ(artifact.find("kind")->as_string(), "cos_flight_recording");
  EXPECT_EQ(artifact.find("schema_version")->as_int(), kFlightSchemaVersion);
  EXPECT_EQ(artifact.find("sweep")->as_string(), "flight_test");
  EXPECT_EQ(artifact.find("point_index")->as_int(), 2);
  EXPECT_EQ(artifact.find("trial_index")->as_int(), 7);
  EXPECT_EQ(artifact.find("seed")->as_string(), "0xdeadbeefcafef00d");
  ASSERT_NE(artifact.find("spec"), nullptr);
  EXPECT_EQ(artifact.find("spec")->find("snr_db")->as_double(), 9.2);
  EXPECT_EQ(artifact.find("result")->find("crc_ok")->as_bool(), false);
  EXPECT_EQ(artifact.find("events_evicted")->as_int(), 2);

  const auto& anomalies = artifact.find("anomalies")->as_array();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].as_string(), "crc_fail");

  const auto& events = artifact.find("events")->as_array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].find("stage")->as_string(), "test.stage");
  EXPECT_EQ(events[0].find("u")->as_int(), 2);  // oldest surviving event
  EXPECT_EQ(events[0].find("a")->as_double(), 1.5);

  // The artifact must survive a serialize -> parse round trip untouched.
  const Json reparsed = Json::parse(artifact.dump());
  EXPECT_EQ(reparsed.dump_compact(), artifact.dump_compact());
}

TEST(FlightSeed, HexStringRoundTripsEveryPattern) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x0123456789abcdef},
        ~std::uint64_t{0}}) {
    const std::string text = seed_to_string(seed);
    EXPECT_EQ(text.size(), 18u);  // "0x" + 16 hex digits
    EXPECT_EQ(seed_from_string(text), seed);
  }
  EXPECT_THROW(seed_from_string("12345"), std::runtime_error);
  EXPECT_THROW(seed_from_string("0xnope"), std::runtime_error);
  EXPECT_THROW(seed_from_string(""), std::runtime_error);
}

TEST(FlightCompare, DetectsEventAndResultDivergence) {
  TrialRecording a(test_label(), 42, test_spec());
  TrialRecording b(test_label(), 42, test_spec());
  a.record(make_event(1));
  b.record(make_event(1));

  std::string diff;
  EXPECT_TRUE(compare_artifacts(a.artifact(), b.artifact(), &diff));
  EXPECT_TRUE(diff.empty());

  // A one-bit double difference in an event payload must be caught.
  Event tweaked = make_event(2);
  a.record(make_event(2));
  tweaked.a = 1.5000000000000002;  // next representable double after 1.5
  b.record(tweaked);
  EXPECT_FALSE(compare_artifacts(a.artifact(), b.artifact(), &diff));
  EXPECT_NE(diff.find("event"), std::string::npos);

  // Result digests are compared too.
  TrialRecording c(test_label(), 42, test_spec());
  TrialRecording d(test_label(), 42, test_spec());
  Json r1 = Json::object();
  r1.set("crc_ok", true);
  Json r2 = Json::object();
  r2.set("crc_ok", false);
  c.set_result(std::move(r1));
  d.set_result(std::move(r2));
  EXPECT_FALSE(compare_artifacts(c.artifact(), d.artifact(), &diff));
  EXPECT_NE(diff.find("result"), std::string::npos);
}

TEST(FlightDumpRouter, NameSchemeIsCollisionFreeAndSanitized) {
  TrialLabel label;
  label.sweep = "fig10_detection.b";
  label.point_index = 3;
  label.trial_index = 12;
  EXPECT_EQ(DumpRouter::dump_name(label, 0xdeadbeefULL),
            "fig10_detection.b__p3__t12__s00000000deadbeef.flight.json");
  // Path separators and spaces cannot escape the dump directory.
  label.sweep = "../evil sweep";
  EXPECT_EQ(DumpRouter::dump_name(label, 1),
            "..-evil-sweep__p3__t12__s0000000000000001.flight.json");
}

TEST(FlightDumpRouter, RoutesTriggeredRecordingsUnderBudget) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "flight_router_test";
  std::filesystem::remove_all(dir);
  auto& router = DumpRouter::global();
  router.configure(dir.string(), /*limit=*/1);
  ASSERT_TRUE(router.enabled());

  // A clean recording never dumps.
  TrialRecording clean(test_label(), 5, test_spec());
  EXPECT_EQ(router.route(clean), "");
  EXPECT_EQ(router.dumped(), 0u);

  // A triggered one dumps with the canonical name...
  TrialRecording bad(test_label(), 6, test_spec());
  bad.record(make_event(0));
  bad.trigger("crc_fail");
  const std::string path = router.route(bad);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(std::filesystem::path(path).filename().string(),
            DumpRouter::dump_name(test_label(), 6));
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const Json reread = Json::parse(text.str());
  EXPECT_EQ(reread.find("seed")->as_string(), "0x0000000000000006");

  // ...and the second exceeds --flight-limit and is suppressed.
  TrialRecording worse(test_label(), 7, test_spec());
  worse.trigger("crc_fail");
  EXPECT_EQ(router.route(worse), "");
  EXPECT_EQ(router.dumped(), 1u);
  EXPECT_EQ(router.suppressed(), 1u);

  router.disable();
  std::filesystem::remove_all(dir);
}

// File name -> bytes of every dump in `dir`.
std::map<std::string, std::string> dump_listing(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> listing;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    listing[entry.path().filename().string()] = bytes.str();
  }
  return listing;
}

// One shuffled set of 40 anomalous trials (two sweeps, four points, five
// trials), routed under a limit of 10 from one thread and from four: both
// directories must hold the same 10 files, byte for byte, and they must
// be the 10 lowest (sweep, point, trial) labels.
TEST(FlightDumpRouter, KeepsTheLowestLabelsAtAnyThreadCount) {
  std::vector<TrialLabel> labels;
  for (const char* sweep : {"router_test.b", "router_test.a"}) {
    for (std::size_t point = 0; point < 4; ++point) {
      for (std::size_t trial = 0; trial < 5; ++trial) {
        labels.push_back({sweep, point, trial});
      }
    }
  }
  std::shuffle(labels.begin(), labels.end(), std::mt19937(5));
  auto& router = DumpRouter::global();
  const auto route_all = [&](const std::filesystem::path& dir,
                             std::size_t threads) {
    std::filesystem::remove_all(dir);
    router.configure(dir.string(), /*limit=*/10);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < labels.size(); i += threads) {
          const TrialLabel& label = labels[i];
          const std::uint64_t seed =
              100 * label.point_index + label.trial_index;
          TrialRecording rec(label, seed, test_spec());
          rec.record(make_event(seed));
          rec.trigger("crc_fail");
          router.route(rec);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    EXPECT_EQ(router.dumped(), 10u);
    EXPECT_EQ(router.suppressed(), 30u);
    router.disable();
    return dump_listing(dir);
  };
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "flight_router_order";
  const auto one = route_all(root / "one", 1);
  const auto four = route_all(root / "four", 4);
  EXPECT_EQ(one, four);
  std::vector<std::string> expected;
  for (std::size_t point = 0; point < 2; ++point) {
    for (std::size_t trial = 0; trial < 5; ++trial) {
      expected.push_back(DumpRouter::dump_name(
          {"router_test.a", point, trial}, 100 * point + trial));
    }
  }
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> names;
  for (const auto& [name, bytes] : one) names.push_back(name);
  EXPECT_EQ(names, expected);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace silence::obs::flight

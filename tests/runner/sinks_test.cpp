// write_sidecars: one `<stem>.obs.json` per run, whose `metrics` and
// `health` sections are exactly the process's snapshots and appear only
// when they hold anything.
#include "runner/sinks.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "obs/health/health.h"
#include "obs/metrics.h"

namespace silence::runner {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> file_names(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

std::vector<std::string> keys(const Json& doc) {
  std::vector<std::string> out;
  for (const auto& [key, value] : doc.as_object()) out.push_back(key);
  return out;
}

TEST(Sidecar, OneObsFileHoldsTheNonEmptySnapshots) {
  const fs::path dir = fs::path(testing::TempDir()) / "runner_sidecar_test";
  fs::remove_all(dir);
  const std::string json_path = (dir / "run.json").string();
  obs::Registry& registry = obs::Registry::global();

  // Nothing recorded: the file holds only its timing section. (Interned
  // names outlive Registry::reset(), so a metrics section of zeros stays
  // when an earlier test in this process interned one; ctest runs each
  // test in its own process.)
  registry.reset();
  write_sidecars(json_path, "sidecar_test", 1, 0, 0.0);
  std::vector<std::string> expected = {"timing"};
  if (!registry.snapshot().empty()) expected.push_back("metrics");
  EXPECT_EQ(keys(read_json_file(obs_sidecar_path(json_path))), expected);

  registry.counter_add(registry.counter_id("sidecar_test.events"), 3);
  obs::health::count(obs::health::Counter::kPlans, 2);
  write_sidecars(json_path, "sidecar_test", 2, 5, 0.25);
  EXPECT_EQ(file_names(dir), std::vector<std::string>{"run.obs.json"});
  EXPECT_EQ(obs_sidecar_path(json_path), (dir / "run.obs.json").string());
  const Json doc = read_json_file(obs_sidecar_path(json_path));
  EXPECT_EQ(keys(doc),
            (std::vector<std::string>{"timing", "metrics", "health"}));
  EXPECT_EQ(keys(*doc.find("timing")),
            (std::vector<std::string>{"bench", "threads", "trials_run",
                                      "wall_seconds"}));
  EXPECT_EQ(doc.find("timing")->find("trials_run")->as_int(), 5);
  EXPECT_EQ(doc.find("metrics")->dump(),
            obs::metrics_json(registry.snapshot()).dump());
  EXPECT_EQ(doc.find("health")->dump(),
            obs::health::health_json(obs::health::snapshot()).dump());
  registry.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace silence::runner

#include "runner/sinks.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/health/health.h"
#include "obs/metrics.h"

namespace silence::runner {

namespace {

// Renders one JSON cell for the aligned console table.
std::string cell_text(const Json& cell, int precision) {
  // The table prints doubles at the column's precision; everything else
  // falls back to the compact JSON form (strings lose their quotes).
  const std::string compact = cell.dump_compact();
  if (compact == "null") return "-";
  if (!compact.empty() && compact.front() == '"' && compact.back() == '"') {
    return compact.substr(1, compact.size() - 2);
  }
  if (precision >= 0 &&
      compact.find_first_not_of("-0123456789.eE+") == std::string::npos) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, std::stod(compact));
    return buf;
  }
  return compact;
}

}  // namespace

void SweepReport::add_row(std::vector<Json> cells) {
  if (cells.size() != columns.size()) {
    throw std::invalid_argument("SweepReport::add_row: cell/column mismatch");
  }
  rows.push_back(std::move(cells));
}

void TableSink::write(const SweepReport& report) {
  std::printf("=============================================================\n");
  std::printf("%s: %s\n", report.title.c_str(), report.description.c_str());
  std::printf("=============================================================\n");
  for (const auto& col : report.columns) {
    std::printf("%*s", col.width, col.name.c_str());
  }
  std::printf("\n");
  for (const auto& row : report.rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%*s", report.columns[c].width,
                  cell_text(row[c], report.columns[c].precision).c_str());
    }
    std::printf("\n");
  }
  for (const auto& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("[%zu trials, %d thread%s, %.2f s]\n", report.trials_run,
              report.threads, report.threads == 1 ? "" : "s",
              report.wall_seconds);
}

Json JsonSink::payload(const SweepReport& report) {
  Json root = Json::object();
  root.set("bench", report.bench);
  root.set("title", report.title);
  root.set("description", report.description);
  root.set("schema_version", 1);
  root.set("grid", report.grid);
  Json names = Json::array();
  for (const auto& col : report.columns) names.push_back(col.name);
  root.set("columns", std::move(names));
  Json points = Json::array();
  for (const auto& row : report.rows) {
    Json point = Json::object();
    for (std::size_t c = 0; c < row.size(); ++c) {
      point.set(report.columns[c].name, row[c]);
    }
    points.push_back(std::move(point));
  }
  root.set("points", std::move(points));
  return root;
}

std::string obs_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".obs.json";
}

void JsonSink::write(const SweepReport& report) {
  write_json_file(path_, payload(report));
  write_sidecars(path_, report.bench, report.threads, report.trials_run,
                 report.wall_seconds);
}

void write_sidecars(const std::string& json_path, const std::string& bench,
                    int threads, std::size_t trials_run, double wall_seconds) {
  Json doc = Json::object();
  Json timing = Json::object();
  timing.set("bench", bench);
  timing.set("threads", threads);
  timing.set("trials_run", static_cast<std::int64_t>(trials_run));
  timing.set("wall_seconds", wall_seconds);
  doc.set("timing", std::move(timing));
  // Both snapshots are empty under SILENCE_OBS=OFF (the macros compile
  // away); health is also empty for benches that never touch the CoS path.
  const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
  if (!metrics.empty()) doc.set("metrics", obs::metrics_json(metrics));
  const obs::health::HealthSnapshot health = obs::health::snapshot();
  if (!health.empty()) doc.set("health", obs::health::health_json(health));
  write_json_file(obs_sidecar_path(json_path), doc);
}

Json merge_obs_json(const std::vector<Json>& docs) {
  std::int64_t trials_run = 0;
  double wall_seconds = 0.0;
  std::vector<Json> metrics;
  obs::health::HealthSnapshot health;
  for (const Json& doc : docs) {
    if (const Json* timing = doc.find("timing")) {
      if (const Json* n = timing->find("trials_run")) trials_run += n->as_int();
      if (const Json* s = timing->find("wall_seconds")) {
        wall_seconds += s->as_double();
      }
    }
    if (const Json* m = doc.find("metrics")) metrics.push_back(*m);
    if (const Json* h = doc.find("health")) {
      health += obs::health::health_from_json(*h);
    }
  }
  Json merged = Json::object();
  Json timing = Json::object();
  timing.set("trials_run", trials_run);
  timing.set("wall_seconds", wall_seconds);
  merged.set("timing", std::move(timing));
  if (!metrics.empty()) merged.set("metrics", obs::merge_metrics_json(metrics));
  if (!health.empty()) merged.set("health", obs::health::health_json(health));
  return merged;
}

void write_json_file(const std::string& path, const Json& value) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_json_file: cannot open " + path);
  }
  out << value.dump();
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_json_file: cannot open " + path);
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw std::runtime_error("read_json_file: read error on " + path);
  }
  return Json::parse(text);
}

}  // namespace silence::runner

#include "runner/sinks.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <variant>

#include "obs/health/health.h"

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

std::string timing_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".timing.json";
}

std::string metrics_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".metrics.json";
}

std::string health_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".health.json";
}

Json metrics_json(const obs::MetricsSnapshot& snapshot) {
  Json root = Json::object();
  Json counters = Json::object();
  for (const auto& c : snapshot.counters) {
    counters.set(c.name, static_cast<std::int64_t>(c.value));
  }
  root.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& g : snapshot.gauges) {
    gauges.set(g.name, static_cast<std::int64_t>(g.value));
  }
  root.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const auto& h : snapshot.histograms) {
    Json entry = Json::object();
    entry.set("count", static_cast<std::int64_t>(h.count));
    entry.set("sum", static_cast<std::int64_t>(h.sum));
    entry.set("min", static_cast<std::int64_t>(h.min));
    entry.set("max", static_cast<std::int64_t>(h.max));
    entry.set("mean", h.mean());
    // Bucket-interpolated latency quantiles. Appended after the legacy
    // fields, so pre-existing keys keep their exact bytes.
    entry.set("p50", h.quantile(0.50));
    entry.set("p95", h.quantile(0.95));
    entry.set("p99", h.quantile(0.99));
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    Json floors = Json::array();
    Json buckets = Json::array();
    for (std::size_t b = 0; b < last; ++b) {
      floors.push_back(
          static_cast<std::int64_t>(obs::histogram_bucket_floor(b)));
      buckets.push_back(static_cast<std::int64_t>(h.buckets[b]));
    }
    entry.set("bucket_floors", std::move(floors));
    entry.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(entry));
  }
  root.set("histograms", std::move(histograms));
  return root;
}

Json merge_metrics_json(const std::vector<Json>& docs) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, obs::HistogramSnapshot> histograms;

  const auto section = [](const Json& doc, std::string_view key) {
    static const Json empty = Json::object();
    const Json* value = doc.find(key);
    if (value == nullptr) return &empty;
    if (!value->is_object()) {
      throw std::runtime_error("merge_metrics_json: '" + std::string(key) +
                               "' is not an object");
    }
    return value;
  };

  for (const Json& doc : docs) {
    for (const auto& [name, value] : section(doc, "counters")->as_object()) {
      counters[name] += static_cast<std::uint64_t>(value.as_int());
    }
    for (const auto& [name, value] : section(doc, "gauges")->as_object()) {
      const std::int64_t v = value.as_int();
      const auto [it, inserted] = gauges.emplace(name, v);
      if (!inserted && v > it->second) it->second = v;
    }
    for (const auto& [name, value] : section(doc, "histograms")->as_object()) {
      const auto field = [&](std::string_view key) -> const Json& {
        const Json* f = value.find(key);
        if (f == nullptr) {
          throw std::runtime_error("merge_metrics_json: histogram '" + name +
                                   "' missing '" + std::string(key) + "'");
        }
        return *f;
      };
      obs::HistogramSnapshot& h = histograms[name];
      h.name = name;
      h.buckets.resize(obs::kHistogramBuckets, 0);
      const std::uint64_t count =
          static_cast<std::uint64_t>(field("count").as_int());
      if (count == 0) continue;
      const std::uint64_t min =
          static_cast<std::uint64_t>(field("min").as_int());
      const std::uint64_t max =
          static_cast<std::uint64_t>(field("max").as_int());
      if (h.count == 0 || min < h.min) h.min = min;
      if (h.count == 0 || max > h.max) h.max = max;
      h.count += count;
      h.sum += static_cast<std::uint64_t>(field("sum").as_int());
      // metrics_json trims trailing zero buckets, so position == bucket
      // index for everything it kept.
      const Json::Array& buckets = field("buckets").as_array();
      if (buckets.size() > obs::kHistogramBuckets) {
        throw std::runtime_error("merge_metrics_json: histogram '" + name +
                                 "' has too many buckets");
      }
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        h.buckets[b] += static_cast<std::uint64_t>(buckets[b].as_int());
      }
    }
  }

  obs::MetricsSnapshot merged;
  for (auto& [name, value] : counters) merged.counters.push_back({name, value});
  for (auto& [name, value] : gauges) merged.gauges.push_back({name, value});
  for (auto& [name, h] : histograms) merged.histograms.push_back(std::move(h));
  return metrics_json(merged);
}

void JsonSink::write(const SweepReport& report) {
  write_json_file(path_, payload(report));
  write_sidecars(path_, report.bench, report.threads, report.trials_run,
                 report.wall_seconds);
}

void write_sidecars(const std::string& json_path, const std::string& bench,
                    int threads, std::size_t trials_run, double wall_seconds) {
  Json timing = Json::object();
  timing.set("bench", bench);
  timing.set("threads", threads);
  timing.set("trials_run", static_cast<std::int64_t>(trials_run));
  timing.set("wall_seconds", wall_seconds);
  write_json_file(timing_sidecar_path(json_path), timing);

  // Metrics sidecar: the pipeline-wide obs snapshot for this run. Like
  // timing it never touches the main file — counter values are seed-
  // deterministic, but the .ns histograms are wall-clock.
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  if (!snapshot.empty()) {
    write_json_file(metrics_sidecar_path(json_path), metrics_json(snapshot));
  }

  // Health sidecar: every quantity seed-deterministic, so the file is
  // byte-identical at any thread count. Empty under SILENCE_OBS=OFF (the
  // macros compile away) and for benches that never touch the CoS path.
  const obs::health::HealthSnapshot health =
      obs::health::Registry::global().snapshot();
  if (!health.empty()) {
    write_json_file(health_sidecar_path(json_path),
                    obs::health::health_json(health));
  }
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

#include "harness/scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace sage::harness {
namespace {

thread_local std::unique_ptr<obs::MetricsRegistry> g_task_metrics;
thread_local std::uint64_t g_task_records = 0;
thread_local int g_task_shards = 0;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

obs::MetricsRegistry* current_task_metrics() { return g_task_metrics.get(); }

void report_task_records(std::uint64_t records) { g_task_records += records; }

void report_task_shards(int shards) { g_task_shards = shards; }

namespace detail {

void begin_task_metrics() {
  g_task_metrics = std::make_unique<obs::MetricsRegistry>();
  g_task_records = 0;
  g_task_shards = 0;
}

std::uint64_t take_task_records() {
  const std::uint64_t n = g_task_records;
  g_task_records = 0;
  return n;
}

int take_task_shards() {
  const int n = g_task_shards;
  g_task_shards = 0;
  return n;
}

std::string end_task_metrics() {
  std::string out;
  if (g_task_metrics && !g_task_metrics->empty()) out = g_task_metrics->snapshot_json();
  g_task_metrics.reset();
  return out;
}

}  // namespace detail

int env_threads() {
  if (const char* env = std::getenv("SAGE_BENCH_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) return static_cast<int>(v);
    std::fprintf(stderr, "harness: ignoring invalid SAGE_BENCH_THREADS=%s\n", env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ScenarioRunner::ScenarioRunner(int threads) : threads_(threads < 1 ? 1 : threads) {}

double ScenarioRunner::total_wall_ms() const {
  double total = 0.0;
  for (const SweepTiming& s : sweeps_) total += s.wall_ms;
  return total;
}

std::string ScenarioRunner::json(const std::string& bench, bool smoke) const {
  std::string out;
  out += "{\n";
  out += "  \"bench\": ";
  obs::append_json_string(out, bench);
  out += ",\n";
  out += "  \"threads\": " + std::to_string(threads_) + ",\n";
  out += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  out += "  \"total_wall_ms\": " + num(total_wall_ms()) + ",\n";
  out += "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweeps_.size(); ++i) {
    const SweepTiming& s = sweeps_[i];
    out += "    {\"name\": ";
    obs::append_json_string(out, s.name);
    out += ", \"wall_ms\": " + num(s.wall_ms) + ", \"tasks\": [\n";
    for (std::size_t j = 0; j < s.tasks.size(); ++j) {
      const TaskTiming& t = s.tasks[j];
      out += "      {\"index\": " + std::to_string(t.index) + ", \"label\": ";
      obs::append_json_string(out, t.label);
      out += ", \"wall_ms\": " + num(t.wall_ms);
      out += ", \"shards\": " + std::to_string(t.shards);
      if (t.records > 0) {
        out += ", \"records\": " + std::to_string(t.records);
        const double wall_s = t.wall_ms / 1e3;
        out += ", \"records_per_wall_s\": " +
               num(wall_s > 0.0 ? static_cast<double>(t.records) / wall_s : 0.0);
      }
      // Snapshots are already valid single-line JSON objects; embed raw.
      if (!t.metrics_json.empty()) out += ", \"metrics\": " + t.metrics_json;
      out += "}";
      out += (j + 1 < s.tasks.size()) ? ",\n" : "\n";
    }
    out += "    ]}";
    out += (i + 1 < sweeps_.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool ScenarioRunner::write_json(const std::string& path, const std::string& bench,
                                bool smoke) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "harness: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = json(bench, smoke);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace sage::harness

// Deterministic parallel scenario execution.
//
// The experiment harness sweeps independent parameter grids — every grid
// point builds its own World (engine + provider + RNG, nothing shared) and
// runs it to completion. ScenarioRunner widens that across threads, which
// claim task indices from one shared counter, while keeping the observable
// output bit-identical to the sequential run:
//
//   * tasks are described up front (seed and parameters live in the task
//     value, exactly as the sequential code computed them — never derived
//     from execution order, thread id, or wall clock);
//   * results land in an index-ordered vector, so everything printed or
//     aggregated afterwards sees the sequential order no matter how the
//     threads interleaved execution;
//   * with 1 thread or 1 task no thread starts: the sweep runs in index
//     order on the caller, restoring the pre-harness behaviour exactly.
//
// Thread count comes from SAGE_BENCH_THREADS (default: hardware
// concurrency). Task exceptions are captured per slot and rethrown in
// index order after the sweep drains, so a failing grid point reports the
// same error the sequential loop would have hit first. Per-task wall-clock
// is recorded and can be emitted as a machine-readable JSON record
// (--json; see BENCH_PR3.json).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sage::obs {
class MetricsRegistry;
}  // namespace sage::obs

namespace sage::harness {

/// Thread count for scenario sweeps: SAGE_BENCH_THREADS when set to a
/// positive integer, otherwise std::thread::hardware_concurrency().
int env_threads();

/// Registry collecting observability metrics for the grid point currently
/// executing on this thread, or null outside a sweep task. Worlds merge
/// their per-engine registries into it at teardown; the snapshot lands in
/// the task's --json record. Never printed to stdout, so bench output stays
/// byte-identical whether observability is on or off.
obs::MetricsRegistry* current_task_metrics();

/// Credit `records` processed records to the grid point currently executing
/// on this thread. Benches call this from inside a sweep task; the total
/// surfaces as `records` / `records_per_wall_s` in the task's --json record
/// (a records-per-wall-second throughput figure for perf tracking). No-op
/// outside a sweep.
void report_task_records(std::uint64_t records);

/// Record the shard count the current grid point executed at. Surfaces as
/// `shards` in the task's --json record so sharded wall-clock wins are
/// attributed honestly (sharded-soak sweeps mix shard counts within one
/// sweep). Tasks that never call this record 0 (the plain engine). No-op
/// outside a sweep.
void report_task_shards(int shards);

namespace detail {
/// Install a fresh per-task registry on the calling thread.
void begin_task_metrics();
/// Uninstall it; returns its JSON snapshot, or "" when nothing landed.
std::string end_task_metrics();
/// Drain the thread's report_task_records() accumulator.
std::uint64_t take_task_records();
/// Drain the thread's report_task_shards() value (0 when unreported).
int take_task_shards();
}  // namespace detail

struct TaskTiming {
  std::size_t index = 0;
  std::string label;
  double wall_ms = 0.0;
  /// Records the task credited via report_task_records (0 = not reported).
  std::uint64_t records = 0;
  /// Shard count the task reported executing at (0 = plain engine).
  int shards = 0;
  /// Merged metric snapshot for this grid point ("" when obs was off).
  std::string metrics_json;
};

struct SweepTiming {
  std::string name;
  double wall_ms = 0.0;  // caller-observed: sweep start to last result
  std::vector<TaskTiming> tasks;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(int threads = env_threads());

  [[nodiscard]] int threads() const { return threads_; }

  /// Run `fn` over every task, in parallel when threads() > 1, and return
  /// the results in task order. `label_fn(task)` names each grid point in
  /// the timing record.
  template <typename Task, typename Fn, typename LabelFn>
  auto sweep(const std::string& name, const std::vector<Task>& tasks, Fn&& fn,
             LabelFn&& label_fn)
      -> std::vector<std::invoke_result_t<Fn&, const Task&>> {
    using R = std::invoke_result_t<Fn&, const Task&>;
    static_assert(std::is_default_constructible_v<R>,
                  "sweep results are preallocated per slot");

    const auto sweep_began = Clock::now();
    SweepTiming timing;
    timing.name = name;
    timing.tasks.resize(tasks.size());
    std::vector<R> results(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());

    auto run_one = [&](std::size_t i) {
      const auto began = Clock::now();
      detail::begin_task_metrics();
      try {
        results[i] = fn(tasks[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      TaskTiming& t = timing.tasks[i];
      t.index = i;
      t.label = label_fn(tasks[i]);
      t.records = detail::take_task_records();
      t.shards = detail::take_task_shards();
      t.metrics_json = detail::end_task_metrics();
      t.wall_ms = ms_since(began);
    };

    // The caller and width - 1 helpers each claim the next unrun index;
    // joining the helpers publishes their result slots to the caller. What
    // run_one itself throws (label_fn, bookkeeping) is kept like fn's, so
    // no exception leaves a thread.
    std::atomic<std::size_t> next{0};
    auto claim = [&] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) {
        try {
          run_one(i);
        } catch (...) {
          if (!errors[i]) errors[i] = std::current_exception();
        }
      }
    };
    const std::size_t width = std::min<std::size_t>(threads_, tasks.size());
    std::vector<std::thread> helpers;
    for (std::size_t w = 1; w < width; ++w) helpers.emplace_back(claim);
    claim();
    for (std::thread& h : helpers) h.join();

    timing.wall_ms = ms_since(sweep_began);
    sweeps_.push_back(std::move(timing));
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
    return results;
  }

  template <typename Task, typename Fn>
  auto sweep(const std::string& name, const std::vector<Task>& tasks, Fn&& fn) {
    return sweep(name, tasks, std::forward<Fn>(fn), [&](const Task& task) {
      return name + "[" + std::to_string(index_of(tasks, task)) + "]";
    });
  }

  [[nodiscard]] const std::vector<SweepTiming>& sweeps() const { return sweeps_; }
  [[nodiscard]] double total_wall_ms() const;

  /// Render the timing record ({bench, threads, sweeps:[{tasks:[...]}]}).
  [[nodiscard]] std::string json(const std::string& bench, bool smoke) const;
  /// Write json() to `path`; returns false (and keeps stdout untouched) on
  /// I/O failure.
  bool write_json(const std::string& path, const std::string& bench, bool smoke) const;

 private:
  using Clock = std::chrono::steady_clock;

  static double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }
  template <typename Task>
  static std::size_t index_of(const std::vector<Task>& tasks, const Task& task) {
    return static_cast<std::size_t>(&task - tasks.data());
  }

  int threads_ = 1;
  std::vector<SweepTiming> sweeps_;
};

}  // namespace sage::harness

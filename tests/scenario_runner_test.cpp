// ScenarioRunner contract tests: index-ordered results, lowest-index
// exception propagation, per-task timing records and the thread-count
// override.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace sage {
namespace {

TEST(ScenarioRunner, ResultsComeBackInTaskOrder) {
  harness::ScenarioRunner runner(/*threads=*/4);
  std::vector<int> tasks(64);
  std::iota(tasks.begin(), tasks.end(), 0);
  const auto results = runner.sweep("order", tasks, [](const int& i) {
    // Stagger so completion order scrambles without the index ordering.
    std::this_thread::sleep_for(std::chrono::microseconds((64 - i) * 10));
    return i * i;
  });
  ASSERT_EQ(results.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(ScenarioRunner, EveryTaskRunsOnceAtAnyWidth) {
  // More threads than tasks, one task, and no task at all: each index is
  // claimed exactly once.
  for (const int threads : {1, 3, 8}) {
    for (const std::size_t n : {0u, 1u, 5u}) {
      harness::ScenarioRunner runner(threads);
      std::vector<std::atomic<int>> runs(n);
      std::vector<std::size_t> tasks(n);
      std::iota(tasks.begin(), tasks.end(), 0u);
      const auto results = runner.sweep("once", tasks, [&runs](const std::size_t& i) {
        return ++runs[i];
      });
      EXPECT_EQ(results, std::vector<int>(n, 1)) << threads << " threads, " << n << " tasks";
    }
  }
}

TEST(ScenarioRunner, SequentialAndParallelSweepsAgree) {
  const std::vector<int> tasks = {3, 1, 4, 1, 5, 9, 2, 6};
  auto fn = [](const int& v) { return v * 7 + 1; };
  harness::ScenarioRunner seq(1);
  harness::ScenarioRunner par(4);
  EXPECT_EQ(seq.sweep("agree", tasks, fn), par.sweep("agree", tasks, fn));
}

TEST(ScenarioRunner, FirstExceptionByIndexPropagates) {
  harness::ScenarioRunner runner(/*threads=*/4);
  std::vector<int> tasks(16);
  std::iota(tasks.begin(), tasks.end(), 0);
  try {
    runner.sweep("boom", tasks, [](const int& i) -> int {
      if (i == 3) throw std::runtime_error("task 3");
      if (i == 11) throw std::out_of_range("task 11");
      return i;
    });
    FAIL() << "sweep must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3") << "lowest-index error wins, as sequential";
  }
  // Timing records survive a throwing sweep.
  ASSERT_EQ(runner.sweeps().size(), 1u);
  EXPECT_EQ(runner.sweeps()[0].tasks.size(), 16u);
}

TEST(ScenarioRunner, LabelErrorSurfacesFromSweep) {
  // A throw outside fn, here from label_fn on a sweep thread, surfaces from
  // sweep like a task error instead of ending the program.
  harness::ScenarioRunner runner(/*threads=*/4);
  const std::vector<int> tasks = {0, 1, 2, 3};
  EXPECT_THROW(runner.sweep(
                   "label", tasks, [](const int& i) { return i; },
                   [](const int& i) -> std::string {
                     if (i == 2) throw std::runtime_error("label 2");
                     return "ok";
                   }),
               std::runtime_error);
}

TEST(ScenarioRunner, RecordsPerTaskTimingAndJson) {
  harness::ScenarioRunner runner(/*threads=*/2);
  const std::vector<int> tasks = {1, 2, 3};
  runner.sweep("timed", tasks, [](const int& v) { return v; });
  ASSERT_EQ(runner.sweeps().size(), 1u);
  const auto& sweep = runner.sweeps()[0];
  EXPECT_EQ(sweep.name, "timed");
  ASSERT_EQ(sweep.tasks.size(), 3u);
  EXPECT_EQ(sweep.tasks[1].index, 1u);
  EXPECT_GE(sweep.wall_ms, 0.0);

  const std::string json = runner.json("unit_test", /*smoke=*/true);
  EXPECT_NE(json.find("\"bench\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": true"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"timed\""), std::string::npos);
}

TEST(ScenarioRunner, EnvThreadsParsesOverride) {
  ASSERT_EQ(setenv("SAGE_BENCH_THREADS", "3", 1), 0);
  EXPECT_EQ(harness::env_threads(), 3);
  ASSERT_EQ(setenv("SAGE_BENCH_THREADS", "bogus", 1), 0);
  EXPECT_GE(harness::env_threads(), 1);  // falls back to hardware concurrency
  ASSERT_EQ(unsetenv("SAGE_BENCH_THREADS"), 0);
  EXPECT_GE(harness::env_threads(), 1);
}

}  // namespace
}  // namespace sage

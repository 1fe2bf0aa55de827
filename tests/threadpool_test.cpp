// ThreadPool + ScenarioRunner contract tests: index-ordered results,
// exception propagation, the nested-submit deadlock guard, and determinism
// of real simulation sweeps across thread counts.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "harness/scenario.hpp"

namespace sage {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPool, TaskExceptionSurfacesFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after rethrow.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, NestedSubmitFromWorkerIsRejected) {
  ThreadPool pool(2);
  std::atomic<bool> threw{false};
  pool.submit([&pool, &threw] {
    try {
      pool.submit([] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(threw.load()) << "submit from a pool worker must throw";
}

TEST(ThreadPool, SubmitFromForeignPoolWorkerIsAllowed) {
  ThreadPool a(1);
  ThreadPool b(1);
  std::atomic<bool> ran{false};
  a.submit([&b, &ran] { b.submit([&ran] { ran = true; }); });
  a.wait_idle();
  b.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, OnWorkerThreadIdentifiesItsOwnWorkers) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> inside{false};
  pool.submit([&pool, &inside] { inside = pool.on_worker_thread(); });
  pool.wait_idle();
  EXPECT_TRUE(inside.load());
}

TEST(ThreadPool, RunOnAllWorkersRunsExactlyOncePerWorker) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_on_all_workers([&hits](std::size_t w) {
    ASSERT_LT(w, 4u);
    hits[w].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The barrier is reusable.
  pool.run_on_all_workers(
      [&hits](std::size_t w) { hits[w].fetch_add(1, std::memory_order_relaxed); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadPool, RunOnAllWorkersPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run_on_all_workers([](std::size_t w) {
    if (w == 0) throw std::runtime_error("worker 0 boom");
  }),
               std::runtime_error);
  // The pool stays usable after rethrow.
  std::atomic<int> ran{0};
  pool.run_on_all_workers(
      [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, RunOnAllWorkersFromOwnWorkerIsRejected) {
  ThreadPool pool(2);
  std::atomic<bool> threw{false};
  pool.submit([&pool, &threw] {
    try {
      pool.run_on_all_workers([](std::size_t) {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(threw.load()) << "a worker can never run its own barrier slice";
}

// Regression for the nested-submit guard: the all-workers region does not
// loosen it — submit() from inside a region slice is still rejected, because
// the slice runs on this pool's own worker.
TEST(ThreadPool, SubmitFromAllWorkersRegionIsStillRejected) {
  ThreadPool pool(2);
  std::atomic<int> rejected{0};
  pool.run_on_all_workers([&pool, &rejected](std::size_t) {
    try {
      pool.submit([] {});
    } catch (const std::logic_error&) {
      rejected.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(rejected.load(), 2);
}

TEST(ThreadPool, RunOnAllWorkersCompletesAlongsideQueuedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  // The barrier outranks the backlog; both finish.
  std::atomic<int> region{0};
  pool.run_on_all_workers(
      [&region](std::size_t) { region.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(region.load(), 2);
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

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

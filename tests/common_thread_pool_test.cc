#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"

namespace gapply {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ReusableAfterWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitIdle();
    EXPECT_EQ(counter.load(), 50 * (round + 1));
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No WaitIdle: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.WaitIdle();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, ConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(3);
  pool.WaitIdle();  // nothing submitted — must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, DefaultParallelismIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultParallelism(), 1u);
}

TEST(ThreadPoolTest, RunGroupRunsEveryTaskWithCallerHelp) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.RunGroup(std::move(tasks));  // returns only once all 100 ran
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, RunGroupEmptyAndSingleton) {
  ThreadPool pool(2);
  pool.RunGroup({});  // must not hang
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> one;
  one.push_back([&counter] { counter.fetch_add(1); });
  pool.RunGroup(std::move(one));
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, RunGroupOnSaturatedPoolStillCompletes) {
  // Every pool thread is parked; the caller must drain its group alone.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.RunGroup(std::move(tasks));
  EXPECT_EQ(counter.load(), 10);
  release.store(true);
  pool.WaitIdle();
}

TEST(ThreadPoolTest, NestedRunGroupOnSamePoolDoesNotDeadlock) {
  // Mirrors Exchange nested under parallel GApply on the shared engine
  // pool: a group task starts its own group on the same pool.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &counter] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j) {
        inner.push_back([&counter] { counter.fetch_add(1); });
      }
      pool.RunGroup(std::move(inner));
    });
  }
  pool.RunGroup(std::move(outer));
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, RunTaskGroupFallsBackToTransientPool) {
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  RunTaskGroup(/*pool=*/nullptr, std::move(tasks));
  EXPECT_EQ(counter.load(), 12);
}

TEST(ThreadPoolTest, NestedPoolsDoNotDeadlock) {
  // Mirrors nested parallel GApply: a pool task spins up its own pool.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&counter] {
      ThreadPool inner(2);
      for (int j = 0; j < 8; ++j) {
        inner.Submit([&counter] { counter.fetch_add(1); });
      }
      inner.WaitIdle();
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 64);
}

// ---------------------------------------------------------------------------
// FanOutUnits: the deterministic fan-out every parallel operator runs on.
// ---------------------------------------------------------------------------

TEST(ThreadPoolFanOutTest, SmallestFailingUnitWinsWhenFailuresFinishOutOfOrder) {
  // Unit 1 fails only after unit 3 has already failed, so the first
  // failure in time is unit 3's; the serial error is unit 1's.
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::mutex mu;
    std::condition_variable cv;
    bool unit3_failed = false;
    bool saw_unit3_first = false;
    std::vector<std::atomic<int>> runs(10);
    Status st = FanOutUnits(&pool, 4, 10, [&](size_t, size_t u) -> Status {
      runs[u].fetch_add(1);
      if (u == 3) {
        std::lock_guard<std::mutex> lock(mu);
        unit3_failed = true;
        cv.notify_all();
        return Status::Internal("unit 3");
      }
      if (u == 1) {
        std::unique_lock<std::mutex> lock(mu);
        saw_unit3_first = cv.wait_for(lock, std::chrono::seconds(30),
                                      [&] { return unit3_failed; });
        return Status::Internal("unit 1");
      }
      return Status::OK();
    });
    EXPECT_TRUE(saw_unit3_first) << "round " << round;
    EXPECT_EQ(st.ToString(), Status::Internal("unit 1").ToString());
    // Every unit below a failing one ran exactly once.
    for (size_t u = 0; u <= 3; ++u) EXPECT_EQ(runs[u].load(), 1) << u;
  }
}

TEST(ThreadPoolFanOutTest, SerialStopsAtFirstFailingUnit) {
  std::vector<int> ran;
  Status st = FanOutUnits(nullptr, 1, 8, [&](size_t w, size_t u) -> Status {
    EXPECT_EQ(w, 0u);
    ran.push_back(static_cast<int>(u));
    if (u == 2 || u == 5) return Status::Internal("unit " + std::to_string(u));
    return Status::OK();
  });
  EXPECT_EQ(st.ToString(), Status::Internal("unit 2").ToString());
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPoolFanOutTest, DopAboveUnitCountRunsEachUnitOnce) {
  ThreadPool shared(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &shared}) {
    std::vector<std::atomic<int>> runs(3);
    std::atomic<size_t> max_worker{0};
    std::atomic<int> opens{0};
    std::atomic<int> closes{0};
    FanOutHooks hooks;
    hooks.open = [&](size_t) {
      opens.fetch_add(1);
      return Status::OK();
    };
    hooks.close = [&](size_t) {
      closes.fetch_add(1);
      return Status::OK();
    };
    Status st = FanOutUnits(
        pool, 8, 3,
        [&](size_t w, size_t u) {
          runs[u].fetch_add(1);
          size_t seen = max_worker.load();
          while (w > seen && !max_worker.compare_exchange_weak(seen, w)) {
          }
          return Status::OK();
        },
        hooks);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (size_t u = 0; u < 3; ++u) EXPECT_EQ(runs[u].load(), 1) << u;
    EXPECT_LT(max_worker.load(), 3u);  // workers are min(dop, units)
    EXPECT_EQ(opens.load(), closes.load());
    EXPECT_LE(opens.load(), 3);
  }
}

TEST(ThreadPoolFanOutTest, ZeroUnitsRunsNoWorker) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  FanOutHooks hooks;
  hooks.open = [&](size_t) {
    calls.fetch_add(1);
    return Status::Internal("open");
  };
  Status st = FanOutUnits(
      &pool, 4, 0,
      [&](size_t, size_t) {
        calls.fetch_add(1);
        return Status::Internal("unit");
      },
      hooks);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolFanOutTest, OpenFailureRanksBeforeUnitsCloseFailureAfter) {
  ThreadPool pool(3);
  const auto fail_unit = [](size_t failing) {
    return [failing](size_t, size_t u) {
      return u == failing ? Status::Internal("unit " + std::to_string(u))
                          : Status::OK();
    };
  };
  for (int round = 0; round < 5; ++round) {
    // One worker's open fails: that outranks any unit failure.
    FanOutHooks open_fails;
    open_fails.open = [](size_t w) {
      return w == 1 ? Status::Internal("open") : Status::OK();
    };
    EXPECT_EQ(FanOutUnits(&pool, 4, 16, fail_unit(0), open_fails).ToString(),
              Status::Internal("open").ToString());

    // Every worker's close fails: a unit failure still outranks it, and
    // with no unit failure the close error surfaces.
    FanOutHooks close_fails;
    close_fails.close = [](size_t) { return Status::Internal("close"); };
    EXPECT_EQ(FanOutUnits(&pool, 4, 16, fail_unit(9), close_fails).ToString(),
              Status::Internal("unit 9").ToString());
    EXPECT_EQ(FanOutUnits(&pool, 4, 16, fail_unit(99), close_fails).ToString(),
              Status::Internal("close").ToString());
  }
}

}  // namespace
}  // namespace gapply

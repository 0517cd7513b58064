#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

namespace gapply {

namespace {

/// Shared state of one RunGroup call. Owned by shared_ptr so wake tokens
/// still queued when the group finishes (every task already claimed) find
/// an exhausted cursor and return without touching freed memory.
struct GroupState {
  std::vector<std::function<void()>> tasks;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;
};

void RunGroupTasks(const std::shared_ptr<GroupState>& g) {
  while (true) {
    const size_t i = g->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= g->tasks.size()) return;
    g->tasks[i]();
    {
      std::lock_guard<std::mutex> lock(g->mu);
      ++g->completed;
    }
    g->done_cv.notify_all();
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::RunGroup(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks[0]();
    return;
  }
  auto g = std::make_shared<GroupState>();
  g->tasks = std::move(tasks);
  // One wake token per pool worker that could usefully help; the caller
  // covers the last task itself.
  const size_t helpers = std::min(size(), g->tasks.size() - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([g] { RunGroupTasks(g); });
  }
  RunGroupTasks(g);
  std::unique_lock<std::mutex> lock(g->mu);
  g->done_cv.wait(lock, [&] { return g->completed == g->tasks.size(); });
}

void RunTaskGroup(ThreadPool* pool, std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks[0]();
    return;
  }
  if (pool != nullptr) {
    pool->RunGroup(std::move(tasks));
    return;
  }
  ThreadPool transient(tasks.size() - 1);
  transient.RunGroup(std::move(tasks));
}

Status FanOutUnits(ThreadPool* pool, size_t dop, size_t num_units,
                   const std::function<Status(size_t w, size_t u)>& run_unit,
                   const FanOutHooks& hooks) {
  const size_t workers = std::min(dop, num_units);
  // A worker's failure rank: 0 for its open hook, u + 1 for unit u,
  // UINT64_MAX for its close hook. The smallest rank is the serial error.
  struct Failure {
    Status error = Status::OK();
    uint64_t rank = UINT64_MAX;
    bool failed = false;
  };
  std::vector<Failure> failures(workers);
  std::atomic<size_t> next_unit{0};
  std::atomic<bool> abort{false};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    tasks.push_back([&, w] {
      Failure& f = failures[w];
      const auto fail = [&](Status st, uint64_t rank) {
        f = {std::move(st), rank, true};
        abort.store(true, std::memory_order_relaxed);
      };
      if (hooks.open) {
        Status st = hooks.open(w);
        if (!st.ok()) return fail(std::move(st), 0);
      }
      while (!abort.load(std::memory_order_relaxed)) {
        const size_t u = next_unit.fetch_add(1, std::memory_order_relaxed);
        if (u >= num_units) break;
        Status st = run_unit(w, u);
        if (!st.ok()) {
          fail(std::move(st), u + 1);
          break;
        }
      }
      if (hooks.close) {
        Status st = hooks.close(w);
        if (!st.ok() && !f.failed) fail(std::move(st), UINT64_MAX);
      }
    });
  }
  RunTaskGroup(pool, std::move(tasks));

  const Failure* first = nullptr;
  for (const Failure& f : failures) {
    if (f.failed && (first == nullptr || f.rank < first->rank)) first = &f;
  }
  return first == nullptr ? Status::OK() : first->error;
}

size_t ThreadPool::DefaultParallelism() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace gapply

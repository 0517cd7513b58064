#ifndef GAPPLY_COMMON_THREAD_POOL_H_
#define GAPPLY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace gapply {

/// \brief A small fixed-size worker pool for intra-operator parallelism.
///
/// Tasks submitted with `Submit` run on one of `num_threads` workers in FIFO
/// order. The pool is reusable: `WaitIdle` blocks until every submitted task
/// has finished, after which more tasks may be submitted. The destructor
/// drains the queue (runs everything already submitted) before joining.
///
/// The pool makes no attempt at work stealing or task priorities — callers
/// that need balanced fan-out use FanOutUnits, which submits one long-lived
/// task per worker and distributes fine-grained work through a shared
/// atomic cursor, keeping queue traffic off the hot path.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Runs all remaining queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Enqueues `task`. Must not be called concurrently with the destructor.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void WaitIdle();

  /// \brief Runs `tasks` to completion and returns. The calling thread
  /// *helps*: it claims tasks from the group alongside the pool workers, so
  /// the group always makes progress even when every pool worker is busy —
  /// which makes nested use safe (a task running on this pool may itself
  /// call RunGroup on the same pool without deadlocking; in the worst case
  /// the nested caller just executes its whole group inline).
  ///
  /// Tasks may run in any order and must not throw. Unlike Submit/WaitIdle,
  /// RunGroup waits only for *its own* tasks, so concurrent groups from
  /// different operators do not serialize behind each other.
  void RunGroup(std::vector<std::function<void()>> tasks);

  /// The degree of parallelism to use when the caller asks for "all the
  /// hardware": std::thread::hardware_concurrency(), clamped to at least 1.
  static size_t DefaultParallelism();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task queued / shutdown
  std::condition_variable idle_cv_;  // signals WaitIdle: a task finished
  size_t active_ = 0;                // tasks currently executing
  bool shutdown_ = false;
};

/// \brief Runs a group of tasks with caller help on `pool`, or — when the
/// caller has no pool (standalone operator tests) — on a transient pool
/// sized for the group. The task layer under FanOutUnits; operators fan out
/// through FanOutUnits rather than calling this directly.
void RunTaskGroup(ThreadPool* pool, std::vector<std::function<void()>> tasks);

/// Per-worker hooks of FanOutUnits; either may be empty.
struct FanOutHooks {
  /// Runs on worker `w` before it claims a unit. A failure ranks before
  /// every unit (serially, setup precedes all work); the worker then claims
  /// nothing and skips `close`.
  std::function<Status(size_t w)> open;
  /// Runs on worker `w` after its last unit, also after one that failed. A
  /// failure ranks after every unit and is dropped if the worker already
  /// failed.
  std::function<Status(size_t w)> close;
};

/// \brief The deterministic fan-out behind every parallel operator (GApply
/// phase 2, Exchange, parallel aggregation, parallel join build).
///
/// Runs `run_unit(w, u)` once for every unit u in [0, num_units) on
/// min(dop, num_units) workers w, as one task group on `pool` (see
/// RunTaskGroup). Workers claim units in increasing order through a
/// monotone cursor and run each claimed unit to completion; once any unit
/// or hook fails, no worker claims another. So every unit below a failed
/// one has run, and the smallest failing unit is the one serial execution
/// fails at first: its error is the one returned. Units must not depend on
/// each other; each should write only its own output slot.
Status FanOutUnits(ThreadPool* pool, size_t dop, size_t num_units,
                   const std::function<Status(size_t w, size_t u)>& run_unit,
                   const FanOutHooks& hooks = {});

}  // namespace gapply

#endif  // GAPPLY_COMMON_THREAD_POOL_H_

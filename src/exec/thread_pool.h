#ifndef IDREPAIR_EXEC_THREAD_POOL_H_
#define IDREPAIR_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace idrepair {

/// A work-stealing thread pool. Each worker owns a deque: it pops its own
/// tasks LIFO (cache-friendly for nested spawns) and steals FIFO from the
/// other workers when its deque runs dry; tasks submitted from outside the
/// pool land in a shared injection queue. Waiters (TaskGroup::Wait) help by
/// draining tasks via TryRunOneTask, so nested parallelism — a pool task
/// that spawns and waits on subtasks — can never deadlock, even on a
/// single-worker pool.
///
/// The pool itself imposes no ordering; callers that need determinism merge
/// task results in a caller-chosen order (see exec/README.md).
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 selects hardware_concurrency.
  explicit ThreadPool(int num_threads = 0);

  /// Drains nothing: outstanding tasks are completed before teardown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Called from a worker of this pool, the task goes to
  /// that worker's own deque (stolen by idle peers); otherwise to the
  /// shared injection queue.
  void Submit(std::function<void()> task);

  /// Runs one pending task on the calling thread if any is available.
  /// Returns false when every queue is empty. Used by TaskGroup::Wait to
  /// help instead of blocking.
  bool TryRunOneTask();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide shared pool sized to the hardware. Lazily constructed,
  /// never destroyed before exit.
  static ThreadPool& Default();

 private:
  void WorkerLoop(int self);
  /// Pops one task. `stolen`, when non-null, reports whether the task came
  /// from another worker's deque (a genuine steal — injection-queue pops
  /// are ordinary dispatch, not theft).
  bool PopAnyTask(int self, std::function<void()>* out,
                  bool* stolen = nullptr);
  void RunTask(std::function<void()>& task, bool stolen);

  // One deque per worker plus the injection queue at index workers_.size().
  // A single mutex guards all queues: tasks here are coarse (a block of
  // pairwise evaluations or of clique seeds), so queue operations
  // are a vanishing fraction of task runtime and the simple locking keeps
  // the pool easy to reason about (and trivially TSan-clean).
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::function<void()>>> queues_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace idrepair

#endif  // IDREPAIR_EXEC_THREAD_POOL_H_

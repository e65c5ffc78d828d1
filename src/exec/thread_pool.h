#ifndef IDREPAIR_EXEC_THREAD_POOL_H_
#define IDREPAIR_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace idrepair {

/// A plain FIFO thread pool: N workers pop tasks from one queue. Nothing
/// ever waits on a queued task — ParallelFor offers its helpers here and
/// waits only for the ones that have started (see exec/README.md) — so
/// the pool needs no work stealing and no helping wait to stay
/// deadlock-free under nested loops.
///
/// The pool itself imposes no ordering; callers that need determinism merge
/// task results in a caller-chosen order (see exec/README.md).
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 selects hardware_concurrency.
  explicit ThreadPool(int num_threads = 0);

  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Appends a task to the queue.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide shared pool sized to the hardware. Lazily constructed,
  /// never destroyed before exit.
  static ThreadPool& Default();

 private:
  void WorkerLoop();

  // Tasks are coarse (a claim loop over many blocks), so one mutex around
  // one queue costs nothing measurable and keeps the pool trivially
  // TSan-clean.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace idrepair

#endif  // IDREPAIR_EXEC_THREAD_POOL_H_

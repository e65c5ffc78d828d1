#include "exec/thread_pool.h"

#include <utility>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Identifies the pool (and worker slot) the current thread belongs to, so
/// Submit can route worker-spawned tasks to the worker's own deque.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  int index = -1;
};
thread_local WorkerIdentity tls_worker;

/// Pool instrumentation, resolved once against the global registry so the
/// hot path never touches the registry lock. Sites guard on obs::Enabled().
struct PoolMetrics {
  obs::Counter* submitted;
  obs::Counter* executed;
  obs::Counter* stolen;
  obs::Gauge* queue_depth;
  obs::Histogram* task_seconds;

  static PoolMetrics& Get() {
    static PoolMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* pm = new PoolMetrics();
      // Task counts depend on the thread budget (ParallelFor spawns one
      // worker task per thread, up to the block count), so they are
      // runtime metrics even though each width reproduces them exactly.
      pm->submitted = reg.GetCounter(
          "idrepair_exec_tasks_submitted_total", obs::Stability::kRuntime,
          "Tasks enqueued on any thread pool");
      pm->executed = reg.GetCounter(
          "idrepair_exec_tasks_executed_total", obs::Stability::kRuntime,
          "Tasks run to completion by workers or helping waiters");
      pm->stolen = reg.GetCounter(
          "idrepair_exec_tasks_stolen_total", obs::Stability::kRuntime,
          "Tasks taken from another worker's deque");
      pm->queue_depth = reg.GetGauge(
          "idrepair_exec_queue_depth", obs::Stability::kRuntime,
          "Tasks currently enqueued and not yet started");
      pm->task_seconds = reg.GetHistogram(
          "idrepair_exec_task_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(), "Task execution wall time");
      return pm;
    }();
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  queues_.resize(static_cast<size_t>(num_threads) + 1);  // +1: injection
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t queue = tls_worker.pool == this
                       ? static_cast<size_t>(tls_worker.index)
                       : queues_.size() - 1;
    queues_[queue].push_back(std::move(task));
  }
  if (obs::Enabled()) {
    PoolMetrics& m = PoolMetrics::Get();
    m.submitted->Increment();
    m.queue_depth->Add(1);
  }
  cv_.notify_one();
}

bool ThreadPool::PopAnyTask(int self, std::function<void()>* out,
                            bool* stolen) {
  if (stolen != nullptr) *stolen = false;
  // Own deque back first (LIFO — the task most recently spawned here),
  // then steal oldest-first from the injection queue and the other
  // workers, scanning from the slot after ours so steals spread out.
  size_t n = queues_.size();
  if (self >= 0 && !queues_[static_cast<size_t>(self)].empty()) {
    *out = std::move(queues_[static_cast<size_t>(self)].back());
    queues_[static_cast<size_t>(self)].pop_back();
    return true;
  }
  size_t start = self >= 0 ? static_cast<size_t>(self) + 1 : n - 1;
  for (size_t k = 0; k < n; ++k) {
    size_t q = (start + k) % n;
    if (queues_[q].empty()) continue;
    *out = std::move(queues_[q].front());
    queues_[q].pop_front();
    // Popping the shared injection queue (index n - 1) is plain dispatch;
    // only raiding another worker's deque counts as a steal.
    if (stolen != nullptr) *stolen = q != n - 1;
    return true;
  }
  return false;
}

void ThreadPool::RunTask(std::function<void()>& task, bool stolen) {
  // Scheduling chaos only: a dispatch path has no Status channel, so armed
  // error actions are counted but swallowed and delays stretch the race
  // window between workers.
  if (fault::Armed()) {
    fault::MaybePerturb(stolen ? "exec.pool.steal" : "exec.pool.dispatch");
  }
  if (!obs::Enabled()) {
    task();
    return;
  }
  PoolMetrics& m = PoolMetrics::Get();
  m.queue_depth->Add(-1);
  if (stolen) m.stolen->Increment();
  uint64_t start_us = obs::TraceNowMicros();
  {
    obs::TraceSpan span("exec.task");
    task();
  }
  m.executed->Increment();
  m.task_seconds->Observe(
      static_cast<double>(obs::TraceNowMicros() - start_us) * 1e-6);
}

void ThreadPool::WorkerLoop(int self) {
  tls_worker = WorkerIdentity{this, self};
  std::function<void()> task;
  bool stolen = false;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Pop before consulting shutdown_ so teardown drains pending tasks.
      cv_.wait(lock,
               [&] { return PopAnyTask(self, &task, &stolen) || shutdown_; });
      if (!task) return;  // shutdown with all queues drained
    }
    RunTask(task, stolen);
    task = nullptr;
  }
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  bool stolen = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int self = tls_worker.pool == this ? tls_worker.index : -1;
    if (!PopAnyTask(self, &task, &stolen)) return false;
  }
  RunTask(task, stolen);
  return true;
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool();  // leaked: lives until exit
  return *pool;
}

}  // namespace idrepair

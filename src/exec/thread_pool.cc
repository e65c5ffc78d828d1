#include "exec/thread_pool.h"

#include <utility>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Pool instrumentation, resolved once against the global registry so the
/// hot path never touches the registry lock. Sites guard on obs::Enabled().
struct PoolMetrics {
  obs::Counter* submitted;
  obs::Counter* executed;
  obs::Gauge* queue_depth;
  obs::Histogram* task_seconds;

  static PoolMetrics& Get() {
    static PoolMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* pm = new PoolMetrics();
      // Task counts depend on the thread budget (ParallelFor offers one
      // helper per extra worker, up to the block count), so they are
      // runtime metrics even though each width reproduces them exactly.
      pm->submitted = reg.GetCounter(
          "idrepair_exec_tasks_submitted_total", obs::Stability::kRuntime,
          "Tasks enqueued on any thread pool");
      pm->executed = reg.GetCounter(
          "idrepair_exec_tasks_executed_total", obs::Stability::kRuntime,
          "Tasks run to completion by pool workers");
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

void RunTask(std::function<void()>& task) {
  // Scheduling chaos only: a pool task has no Status channel, so armed
  // error actions are counted but swallowed and delays hold a helper back
  // from its loop.
  if (fault::Armed()) fault::MaybePerturb("exec.pool.dispatch");
  if (!obs::Enabled()) {
    task();
    return;
  }
  PoolMetrics& m = PoolMetrics::Get();
  m.queue_depth->Add(-1);
  uint64_t start_us = obs::TraceNowMicros();
  {
    obs::TraceSpan span("exec.task");
    task();
  }
  m.executed->Increment();
  m.task_seconds->Observe(
      static_cast<double>(obs::TraceNowMicros() - start_us) * 1e-6);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
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
    queue_.push_back(std::move(task));
  }
  if (obs::Enabled()) {
    PoolMetrics& m = PoolMetrics::Get();
    m.submitted->Increment();
    m.queue_depth->Add(1);
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Pop before consulting shutdown_ so teardown drains pending tasks.
      cv_.wait(lock, [&] { return !queue_.empty() || shutdown_; });
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(task);
  }
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool();  // leaked: lives until exit
  return *pool;
}

}  // namespace idrepair

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/failpoint.h"

#include "exec/exec_options.h"
#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace idrepair {
namespace {

/// Parks every worker of a pool on a blocker task that has signalled it
/// started, until destruction. Tasks submitted from the test thread then
/// sit in the pool's injection queue, and the test thread's helping Wait()
/// runs them itself, one at a time in FIFO order: the schedule the
/// cancellation tests assert on, whatever the load on the host.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool* pool)
      : state_(std::make_shared<State>()) {
    for (int i = 0; i < pool->num_threads(); ++i) {
      pool->Submit([state = state_] {
        std::unique_lock<std::mutex> lock(state->mu);
        ++state->parked;
        state->cv.notify_all();
        state->cv.wait(lock, [&] { return state->released; });
      });
    }
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock,
                    [&] { return state_->parked == pool->num_threads(); });
  }

  ~ParkedWorkers() {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->released = true;
    state_->cv.notify_all();
  }

  ParkedWorkers(const ParkedWorkers&) = delete;
  ParkedWorkers& operator=(const ParkedWorkers&) = delete;

 private:
  // Shared with the blockers, which may wake after the guard is gone.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int parked = 0;
    bool released = false;
  };
  std::shared_ptr<State> state_;
};

TEST(ExecOptionsTest, ResolvesAndValidates) {
  ExecOptions exec;
  EXPECT_GE(exec.ResolvedThreads(), 1);
  EXPECT_TRUE(exec.Validate().ok());
  exec.num_threads = 4;
  EXPECT_EQ(exec.ResolvedThreads(), 4);
  exec.num_threads = -1;
  EXPECT_FALSE(exec.Validate().ok());
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Spawn([&counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, NestedGroupsDoNotDeadlockOnSingleWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Spawn([&pool, &counter] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 4; ++j) {
        inner.Spawn([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
      }
      return inner.Wait();
    });
  }
  EXPECT_TRUE(outer.Wait().ok());
  EXPECT_EQ(counter.load(), 16);
}

TEST(TaskGroupTest, PropagatesFirstError) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Spawn([i] {
      if (i == 3) return Status::InvalidArgument("task 3 failed");
      return Status::OK();
    });
  }
  Status status = group.Wait();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "task 3 failed");
  EXPECT_TRUE(group.IsCancelled());
}

TEST(TaskGroupTest, ErrorCancelsUnstartedTasks) {
  // The worker is parked, so the helping waiter runs the group in spawn
  // order: the failing task first, after which every later task is
  // cancelled and skipped without running.
  ThreadPool pool(1);
  ParkedWorkers parked(&pool);
  std::atomic<int> executed{0};
  TaskGroup group(&pool);
  group.Spawn([] { return Status::Internal("fail fast"); });
  for (int i = 0; i < 200; ++i) {
    group.Spawn([&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  Status status = group.Wait();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(executed.load(), 0);
}

TEST(TaskGroupTest, ManualCancelSkipsTasksAndWaitReturnsOk) {
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  TaskGroup group(&pool);
  group.Cancel();  // cancel before anything is spawned
  for (int i = 0; i < 50; ++i) {
    group.Spawn([&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());  // cancellation is not an error
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPoolTest, ObsCountsEveryTaskExactlyOnce) {
  obs::MetricsRegistry::Global().Reset();
  obs::SetEnabled(true);
  {
    // Scoped so the pool joins its workers before the counters are read —
    // a worker bumps "executed" only after the task body returns.
    ThreadPool pool(4);
    TaskGroup group(&pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
      group.Spawn([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
    }
    ASSERT_TRUE(group.Wait().ok());
    EXPECT_EQ(ran.load(), 100);
  }
  obs::SetEnabled(false);

  uint64_t submitted = 0;
  uint64_t executed = 0;
  uint64_t stolen = 0;
  int64_t depth = -1;
  bool saw_latency = false;
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == "idrepair_exec_tasks_submitted_total") {
      submitted = m.counter_value;
    } else if (m.name == "idrepair_exec_tasks_executed_total") {
      executed = m.counter_value;
    } else if (m.name == "idrepair_exec_tasks_stolen_total") {
      stolen = m.counter_value;
    } else if (m.name == "idrepair_exec_queue_depth") {
      depth = m.gauge_value;
    } else if (m.name == "idrepair_exec_task_seconds") {
      saw_latency = m.total_count == 100;
    }
  }
  EXPECT_EQ(submitted, 100u);
  EXPECT_EQ(executed, submitted);
  EXPECT_LE(stolen, executed);
  EXPECT_EQ(depth, 0);  // everything enqueued was drained
  EXPECT_TRUE(saw_latency);
}

// Regression for the deterministic-first-error contract: the surfaced
// error belongs to the lowest spawn index among the tasks that failed,
// not to whichever failure landed first. Task 0 fails slowly while a
// burst of later tasks fails instantly; at every thread count Wait()
// must still report task 0.
TEST(TaskGroupTest, SurfacesLowestSpawnIndexErrorNotFirstToLand) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    TaskGroup group(&pool);
    std::atomic<bool> started{false};
    group.Spawn([&started] {
      started.store(true, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Status::Corruption("slow failure at index 0");
    });
    // Don't introduce the fast failures until task 0 is running, so it can
    // never be skipped by their cancellation — its failure always exists.
    while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
    for (int i = 1; i < 32; ++i) {
      group.Spawn([] { return Status::Internal("fast failure"); });
    }
    Status status = group.Wait();
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_EQ(status.message(), "slow failure at index 0");
  }
}

// With exactly one fallible task in the group — the common one-bad-shard
// case — the same error surfaces at every thread count, run after run.
TEST(TaskGroupTest, SingleFailureIsDeterministicAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " round=" +
                   std::to_string(round));
      ThreadPool pool(threads);
      TaskGroup group(&pool);
      for (int i = 0; i < 64; ++i) {
        group.Spawn([i] {
          if (i == 23) return Status::NotFound("shard 23 is bad");
          return Status::OK();
        });
      }
      Status status = group.Wait();
      EXPECT_EQ(status.code(), StatusCode::kNotFound);
      EXPECT_EQ(status.message(), "shard 23 is bad");
    }
  }
}

// The exec.task_group.run failpoint fires inside task closures and its
// error propagates through Wait() like any task failure; disarming
// restores clean runs.
TEST(TaskGroupTest, InjectedFaultAtRunSitePropagates) {
  fault::FaultSpec spec;
  spec.fire_on_hit = 1;
  spec.code = StatusCode::kResourceExhausted;
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  .Arm("exec.task_group.run", spec)
                  .ok());
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> executed{0};
  for (int i = 0; i < 16; ++i) {
    group.Spawn([&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  EXPECT_EQ(group.Wait().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(executed.load(), 16) << "the fault should have cancelled tasks";

  fault::FailPointRegistry::Global().DisarmAll();
  TaskGroup clean(&pool);
  for (int i = 0; i < 16; ++i) {
    clean.Spawn([] { return Status::OK(); });
  }
  EXPECT_TRUE(clean.Wait().ok());
}

// Delay perturbation on the pool's dispatch/steal sites reorders timing
// but never drops work or surfaces errors (MaybePerturb swallows them).
TEST(ThreadPoolTest, DispatchPerturbationNeverDropsTasks) {
  fault::FaultSpec delay;
  delay.action = fault::FaultAction::kDelay;
  delay.one_in = 2;
  delay.seed = 3;
  delay.delay_micros = 100;
  ASSERT_TRUE(
      fault::FailPointRegistry::Global().Arm("exec.pool.dispatch", delay).ok());
  ASSERT_TRUE(
      fault::FailPointRegistry::Global().Arm("exec.pool.steal", delay).ok());
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 200; ++i) {
    group.Spawn([&counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(counter.load(), 200);
  fault::FailPointRegistry::Global().DisarmAll();
}

// ---- Auto-grain cost model (exec/grain.h) ----

TEST(GrainTest, SerialInputsCollapseToOneShard) {
  // threads <= 1 is the serial reference schedule: one shard spanning the
  // whole range, whatever the calibration.
  EXPECT_EQ(ComputeAutoGrain(1000, 1, 4), 1000u);
  EXPECT_EQ(ComputeAutoGrain(1000, 0, 512), 1000u);
  EXPECT_EQ(ComputeAutoGrain(7, -3, 1), 7u);
  // Empty range: grain 1 (ParallelFor makes no blocks anyway).
  EXPECT_EQ(ComputeAutoGrain(0, 8, 4), 1u);
}

TEST(GrainTest, SmallCountsFloorAtCalibration) {
  // 10 items on 8 threads targets 32 shards -> raw grain 1, floored at the
  // calibration so tiny shards never pay a dispatch each...
  EXPECT_EQ(ComputeAutoGrain(10, 8, 4), 4u);
  // ...but the floor never exceeds the item count (threads > items).
  EXPECT_EQ(ComputeAutoGrain(3, 8, 512), 3u);
  EXPECT_EQ(ComputeAutoGrain(1, 8, 4), 1u);
}

TEST(GrainTest, HugeCountsTargetShardsPerThread) {
  // 1e6 items, 8 threads -> ceil(1e6 / 32) with the floor irrelevant.
  EXPECT_EQ(ComputeAutoGrain(1000000, 8, 4),
            (1000000u + 8 * kAutoShardsPerThread - 1) /
                (8 * kAutoShardsPerThread));
  // 2 threads -> 8 shards of 125k.
  EXPECT_EQ(ComputeAutoGrain(1000000, 2, 512), 125000u);
}

TEST(GrainTest, ExplicitRequestOverridesTheModel) {
  // Any non-auto request wins unconditionally, even a degenerate one.
  EXPECT_EQ(ResolveGrain(17, 1000000, 8, 512), 17u);
  EXPECT_EQ(ResolveGrain(1, 10, 1, 512), 1u);
  // kGrainAuto defers to the model.
  EXPECT_EQ(ResolveGrain(kGrainAuto, 1000, 1, 4), 1000u);
  EXPECT_EQ(ResolveGrain(kGrainAuto, 10, 8, 4), 4u);
}

TEST(GrainTest, ExecOptionsDefaultToAuto) {
  ExecOptions exec;
  EXPECT_EQ(exec.grain, kGrainAuto);
  EXPECT_TRUE(exec.Validate().ok());
}

// ---- ParallelFor ----

TEST(ParallelForTest, CoversEveryIndexExactlyOnceAtAnyWidth) {
  ThreadPool pool(4);
  for (int threads : {1, 2, 4, 8}) {
    for (size_t block_size : {1u, 3u, 7u, 100u, 1000u}) {
      std::vector<std::atomic<int>> seen(257);
      for (auto& s : seen) s = 0;
      Status status = ParallelFor(
          &pool, seen.size(), threads, block_size,
          [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) seen[i]++;
            return Status::OK();
          });
      ASSERT_TRUE(status.ok()) << status;
      for (auto& s : seen) EXPECT_EQ(s.load(), 1);
    }
  }
}

TEST(ParallelForTest, BlockDecompositionIsPureAndOrdered) {
  // block -> [begin, end) must be a pure function of (n, block_size):
  // begin == block * block_size regardless of claim order or thread count.
  ThreadPool pool(4);
  for (int threads : {1, 4}) {
    std::vector<std::pair<size_t, size_t>> ranges(12);
    Status status = ParallelFor(
        &pool, 100, threads, 9,
        [&](size_t block, size_t begin, size_t end) {
          ranges[block] = {begin, end};
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status;
    for (size_t b = 0; b < ranges.size(); ++b) {
      EXPECT_EQ(ranges[b].first, b * 9);
      EXPECT_EQ(ranges[b].second, std::min<size_t>(100, b * 9 + 9));
    }
  }
}

TEST(ParallelForTest, LowestErroredBlockWins) {
  // Mirror of TaskGroup's lowest-spawn-index retention: when several
  // blocks error, the reported Status is the lowest block index's, at any
  // thread count.
  ThreadPool pool(4);
  for (int threads : {1, 2, 8}) {
    Status status = ParallelFor(
        &pool, 64, threads, 1,
        [&](size_t block, size_t, size_t) {
          if (block >= 5) {
            return Status::Corruption("block " + std::to_string(block));
          }
          return Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_EQ(status.message(), "block 5");
  }
}

TEST(ParallelForTest, ErrorStopsFurtherClaims) {
  // Both workers are parked, so the helping waiter runs the two worker
  // tasks in turn: the first claims block 0, fails and stops the cursor,
  // and the second finds it stopped before claiming anything.
  ThreadPool pool(2);
  ParkedWorkers parked(&pool);
  std::atomic<int> ran{0};
  Status status = ParallelFor(
      &pool, 1000, 2, 1,
      [&](size_t block, size_t, size_t) {
        ran++;
        if (block == 0) return Status::Corruption("first block broke");
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelForTest, ReportsScheduleStats) {
  ThreadPool pool(4);
  ScheduleStats stats;
  Status status = ParallelFor(
      &pool, 100, 4, 10,
      [](size_t, size_t, size_t) { return Status::OK(); }, &stats);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(stats.items, 100u);
  EXPECT_EQ(stats.blocks, 10u);
  EXPECT_GE(stats.workers, 1u);
  EXPECT_LE(stats.workers, 4u);
  uint64_t claimed = 0;
  for (uint64_t c : stats.blocks_per_worker) claimed += c;
  EXPECT_EQ(claimed, 10u);
  EXPECT_GE(stats.Imbalance(), 1.0);
}

TEST(ParallelForTest, SerialPathRunsInlineWithStats) {
  ThreadPool pool(2);
  ScheduleStats stats;
  std::thread::id caller = std::this_thread::get_id();
  Status status = ParallelFor(
      &pool, 50, 1, 10,
      [&](size_t, size_t, size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(stats.blocks, 5u);
  EXPECT_EQ(stats.workers, 1u);
}

}  // namespace
}  // namespace idrepair

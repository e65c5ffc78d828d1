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
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace idrepair {
namespace {

/// Parks every worker of a pool on a blocker task that has signalled it
/// started, until destruction. Helpers a ParallelFor offers meanwhile sit
/// in the queue, so the calling thread runs the whole loop itself: the
/// schedule the claim tests assert on, whatever the load on the host.
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
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.num_threads(), 3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ObsCountsEveryTaskExactlyOnce) {
  obs::MetricsRegistry::Global().Reset();
  obs::SetEnabled(true);
  std::atomic<int> ran{0};
  {
    // Scoped so the pool drains and joins its workers before the counters
    // are read — a worker bumps "executed" only after the task returns.
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  obs::SetEnabled(false);
  EXPECT_EQ(ran.load(), 100);

  uint64_t submitted = 0;
  uint64_t executed = 0;
  int64_t depth = -1;
  bool saw_latency = false;
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == "idrepair_exec_tasks_submitted_total") {
      submitted = m.counter_value;
    } else if (m.name == "idrepair_exec_tasks_executed_total") {
      executed = m.counter_value;
    } else if (m.name == "idrepair_exec_queue_depth") {
      depth = m.gauge_value;
    } else if (m.name == "idrepair_exec_task_seconds") {
      saw_latency = m.total_count == 100;
    }
  }
  EXPECT_EQ(submitted, 100u);
  EXPECT_EQ(executed, submitted);
  EXPECT_EQ(depth, 0);  // everything enqueued was drained
  EXPECT_TRUE(saw_latency);
}

// Delay perturbation at helper start reorders timing but never drops
// blocks or surfaces errors (MaybePerturb swallows them).
TEST(ThreadPoolTest, DispatchPerturbationNeverDropsTasks) {
  fault::FaultSpec delay;
  delay.action = fault::FaultAction::kDelay;
  delay.one_in = 2;
  delay.seed = 3;
  delay.delay_micros = 100;
  ASSERT_TRUE(
      fault::FailPointRegistry::Global().Arm("exec.pool.dispatch", delay).ok());
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    Status status =
        ParallelFor(&pool, 10, 4, 1, [&counter](size_t, size_t, size_t) {
          counter.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
    EXPECT_TRUE(status.ok()) << status;
  }
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
  // When several blocks error, the reported Status is the lowest block
  // index's, at any thread count.
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
  // Both workers are parked, so the calling thread runs the loop alone:
  // it claims block 0, fails and stops the cursor, and the queued helper
  // starts after the loop has returned and claims nothing.
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

// The calling thread is worker 0: with every pool worker parked, no helper
// ever starts, and the caller alone claims all 100 blocks.
TEST(ParallelForTest, CompletesWhileEveryPoolWorkerIsParked) {
  ThreadPool pool(2);
  ParkedWorkers parked(&pool);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<int> seen(100, 0);
  ScheduleStats stats;
  Status status = ParallelFor(
      &pool, seen.size(), 8, 1,
      [&](size_t block, size_t, size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++seen[block];
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status;
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_EQ(stats.blocks_per_worker[0], 100u);
}

// A loop inside a block of another loop on a one-worker pool: the outer
// loop's helper (if the worker starts it) and the caller each run their
// inner loops themselves, so nothing waits on a task that cannot start.
TEST(ParallelForTest, NestedLoopsDoNotDeadlockOnSingleWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  Status status =
      ParallelFor(&pool, 4, 4, 1, [&pool, &counter](size_t, size_t, size_t) {
        return ParallelFor(&pool, 4, 4, 1, [&counter](size_t, size_t, size_t) {
          counter.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
      });
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(counter.load(), 16);
}

/// Runs one loop whose helpers cannot start (the pool's workers are
/// parked) and returns its block sum; the helpers are still queued when
/// this frame, and every local the loop body and stats point into, is gone.
size_t SumBlocksWithQueuedHelpers(ThreadPool* pool) {
  auto sums = std::make_unique<std::vector<size_t>>(64, 0);
  auto stats = std::make_unique<ScheduleStats>();
  Status status = ParallelFor(
      pool, sums->size(), 8, 1,
      [&](size_t block, size_t, size_t) {
        (*sums)[block] = block;
        return Status::OK();
      },
      stats.get());
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(stats->workers, 1u);
  size_t total = 0;
  for (size_t v : *sums) total += v;
  return total;
}

// A helper the pool starts after its loop returned must touch nothing of
// that loop but the shared state it owns a reference to: the frame, the
// body and the stats are gone. AddressSanitizer (scripts/check_asan.sh)
// and ThreadSanitizer (scripts/check_tsan.sh) watch the late helpers run.
TEST(ParallelForTest, LateHelpersTouchNothingOfAFinishedLoop) {
  auto pool = std::make_unique<ThreadPool>(4);
  {
    ParkedWorkers parked(pool.get());
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(SumBlocksWithQueuedHelpers(pool.get()), 64u * 63u / 2);
    }
  }  // released: the workers start the queued helpers now
  pool.reset();  // drains whatever is still queued, then joins
}

// The exec.parallel_for.block failpoint fires before a block's body at
// every width, inline runs included; its error becomes that block's error
// and stops the loop like a body failure. Disarming restores clean runs.
TEST(ParallelForTest, InjectedFaultAtBlockSitePropagates) {
  ThreadPool pool(2);
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fault::FaultSpec spec;
    spec.fire_on_hit = 1;
    spec.code = StatusCode::kResourceExhausted;
    ASSERT_TRUE(fault::FailPointRegistry::Global()
                    .Arm("exec.parallel_for.block", spec)
                    .ok());
    std::atomic<int> executed{0};
    auto body = [&executed](size_t, size_t, size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    };
    EXPECT_EQ(ParallelFor(&pool, 16, threads, 1, body).code(),
              StatusCode::kResourceExhausted);
    EXPECT_LT(executed.load(), 16) << "the fault should have stopped claims";

    fault::FailPointRegistry::Global().DisarmAll();
    executed = 0;
    EXPECT_TRUE(ParallelFor(&pool, 16, threads, 1, body).ok());
    EXPECT_EQ(executed.load(), 16);
  }
}

}  // namespace
}  // namespace idrepair

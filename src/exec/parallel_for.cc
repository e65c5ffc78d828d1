#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "exec/task_group.h"

namespace idrepair {

double ScheduleStats::Imbalance() const {
  uint64_t total = 0;
  uint64_t max = 0;
  size_t active = 0;
  for (size_t w = 0; w < busy_micros_per_worker.size(); ++w) {
    if (w < blocks_per_worker.size() && blocks_per_worker[w] == 0) continue;
    total += busy_micros_per_worker[w];
    max = std::max(max, busy_micros_per_worker[w]);
    ++active;
  }
  if (active == 0 || total == 0) return 1.0;
  double mean = static_cast<double>(total) / static_cast<double>(active);
  return static_cast<double>(max) / mean;
}

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Status ParallelFor(
    ThreadPool* pool, size_t n, int num_threads, size_t block_size,
    const std::function<Status(size_t block, size_t begin, size_t end)>&
        body,
    ScheduleStats* stats) {
  if (block_size == 0) block_size = 1;
  const size_t num_blocks = (n + block_size - 1) / block_size;
  const size_t num_workers = std::min(
      num_blocks, num_threads > 0 ? static_cast<size_t>(num_threads) : 1);
  if (stats != nullptr) {
    stats->items = n;
    stats->blocks = num_blocks;
    stats->workers = 0;
    stats->blocks_per_worker.assign(std::max<size_t>(num_workers, 1), 0);
    stats->busy_micros_per_worker.assign(std::max<size_t>(num_workers, 1),
                                         0);
  }
  if (n == 0) return Status::OK();

  std::atomic<size_t> cursor{0};
  std::atomic<bool> stop{false};
  // Lowest errored block wins, matching TaskGroup's deterministic
  // lowest-spawn-index error retention.
  std::mutex error_mu;
  Status first_error = Status::OK();
  size_t first_error_block = SIZE_MAX;

  auto worker = [&](size_t slot) {
    uint64_t busy = 0;
    uint64_t claimed = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      size_t b = cursor.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) break;
      size_t begin = b * block_size;
      size_t end = std::min(n, begin + block_size);
      uint64_t start = stats != nullptr ? NowMicros() : 0;
      Status s = body(b, begin, end);
      if (stats != nullptr) busy += NowMicros() - start;
      ++claimed;
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (b < first_error_block) {
          first_error_block = b;
          first_error = std::move(s);
        }
        stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (stats != nullptr) {
      // Each slot is written by exactly one worker task; sized upfront.
      stats->blocks_per_worker[slot] = claimed;
      stats->busy_micros_per_worker[slot] = busy;
    }
  };

  if (num_workers <= 1) {
    worker(0);
  } else {
    TaskGroup group(pool);
    for (size_t slot = 0; slot < num_workers; ++slot) {
      group.Spawn([&worker, slot] {
        worker(slot);
        return Status::OK();
      });
    }
    IDREPAIR_RETURN_NOT_OK(group.Wait());
  }
  if (stats != nullptr) {
    for (uint64_t c : stats->blocks_per_worker) {
      if (c > 0) ++stats->workers;
    }
  }
  if (first_error_block != SIZE_MAX) return first_error;
  return Status::OK();
}

}  // namespace idrepair

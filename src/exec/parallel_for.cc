#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "fault/failpoint.h"

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

/// What one loop shares with its helpers. Owned jointly (shared_ptr), so a
/// helper the pool starts after the loop returned still reads valid
/// memory: it finds `closed` set and returns without touching the caller's
/// frame.
struct LoopState {
  std::atomic<size_t> cursor{0};
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable cv;
  // Guarded by mu. The lowest errored block wins.
  Status first_error;
  size_t first_error_block = SIZE_MAX;
  bool closed = false;  // the caller is done claiming; no helper may join
  size_t active = 0;    // helpers inside their claim loop
};

}  // namespace

Status ParallelFor(
    ThreadPool* pool, size_t n, int num_threads, size_t block_size,
    const std::function<Status(size_t block, size_t begin, size_t end)>&
        body,
    ScheduleStats* stats) {
  if (block_size == 0) block_size = 1;
  const size_t num_blocks = (n + block_size - 1) / block_size;
  size_t num_workers = std::min(
      num_blocks, num_threads > 0 ? static_cast<size_t>(num_threads) : 1);
  if (num_workers > 1) {
    num_workers = std::min(num_workers,
                           static_cast<size_t>(pool->num_threads()) + 1);
  }
  if (stats != nullptr) {
    stats->items = n;
    stats->blocks = num_blocks;
    stats->workers = 0;
    stats->blocks_per_worker.assign(std::max<size_t>(num_workers, 1), 0);
    stats->busy_micros_per_worker.assign(std::max<size_t>(num_workers, 1),
                                         0);
  }
  if (n == 0) return Status::OK();

  auto state = std::make_shared<LoopState>();
  auto claim = [&](size_t slot) {
    uint64_t busy = 0;
    uint64_t claimed = 0;
    while (!state->stop.load(std::memory_order_relaxed)) {
      size_t b = state->cursor.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) break;
      size_t begin = b * block_size;
      size_t end = std::min(n, begin + block_size);
      uint64_t start = stats != nullptr ? NowMicros() : 0;
      Status s = fault::Armed() ? fault::Inject("exec.parallel_for.block")
                                : Status::OK();
      if (s.ok()) s = body(b, begin, end);
      if (stats != nullptr) busy += NowMicros() - start;
      ++claimed;
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (b < state->first_error_block) {
          state->first_error_block = b;
          state->first_error = std::move(s);
        }
        state->stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (stats != nullptr) {
      // Each slot is written by exactly one worker; sized upfront.
      stats->blocks_per_worker[slot] = claimed;
      stats->busy_micros_per_worker[slot] = busy;
    }
  };

  for (size_t slot = 1; slot < num_workers; ++slot) {
    // `claim` lives in this frame; a helper may call it only after joining
    // (active > 0 keeps the frame alive below).
    pool->Submit([state, &claim, slot] {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->closed) return;
        ++state->active;
      }
      claim(slot);
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->active == 0) state->cv.notify_all();
    });
  }
  claim(0);
  std::unique_lock<std::mutex> lock(state->mu);
  state->closed = true;
  state->cv.wait(lock, [&] { return state->active == 0; });

  if (stats != nullptr) {
    for (uint64_t c : stats->blocks_per_worker) {
      if (c > 0) ++stats->workers;
    }
  }
  return state->first_error;
}

}  // namespace idrepair

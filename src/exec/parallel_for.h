#ifndef IDREPAIR_EXEC_PARALLEL_FOR_H_
#define IDREPAIR_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"

namespace idrepair {

/// Scheduling footprint of one ParallelFor invocation: how the blocks
/// actually landed on workers, for the imbalance summary in
/// --stats-json. Purely observational — never feeds back into results.
struct ScheduleStats {
  size_t items = 0;    // total work items in the range
  size_t blocks = 0;   // work items as claimed: ceil(items / block size)
  size_t workers = 0;  // workers that claimed at least one block
  /// Blocks claimed and busy time spent, per worker slot. Busy time is
  /// wall time inside body() only, so claim contention is excluded.
  std::vector<uint64_t> blocks_per_worker;
  std::vector<uint64_t> busy_micros_per_worker;

  /// Max worker busy time over the mean, across workers that claimed at
  /// least one block: 1.0 is a perfectly balanced schedule, `workers` is
  /// fully serialized on one worker. 1.0 when nothing ran or timing was
  /// not collected.
  double Imbalance() const;
};

/// Runs body(block, begin, end) over [0, n) split into fixed blocks of
/// `block_size` items (the last block takes the remainder), claimed
/// DYNAMICALLY from a shared cursor until the range is exhausted, so a
/// heavy block delays only the worker that claimed it instead of a fixed
/// range-mate. The block decomposition is a pure function of
/// (n, block_size) — callers write one slot per block and merge the slots
/// in block order for output that is byte-identical at any thread count
/// and any schedule (see exec/README.md).
///
/// The calling thread is worker 0 and claims blocks itself. Up to
/// min(num_threads, blocks, pool->num_threads() + 1) - 1 more workers are
/// offered to `pool` as helpers; the caller waits only for helpers that
/// have started, so the loop finishes even when no pool worker is free
/// (nested loops cannot deadlock on any pool size), and a helper the pool
/// starts after the loop returned does nothing. A single worker (or a
/// single block) submits nothing — the serial reference schedule.
///
/// Error semantics: the first body error stops further claims (blocks
/// already claimed finish); among the blocks that errored, the LOWEST
/// block index wins, so a single bad block surfaces the same Status at
/// every thread count.
Status ParallelFor(
    ThreadPool* pool, size_t n, int num_threads, size_t block_size,
    const std::function<Status(size_t block, size_t begin, size_t end)>&
        body,
    ScheduleStats* stats = nullptr);

}  // namespace idrepair

#endif  // IDREPAIR_EXEC_PARALLEL_FOR_H_

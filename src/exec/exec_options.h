#ifndef IDREPAIR_EXEC_EXEC_OPTIONS_H_
#define IDREPAIR_EXEC_EXEC_OPTIONS_H_

#include <cstddef>
#include <thread>

#include "common/status.h"
#include "exec/grain.h"

namespace idrepair {

/// Execution knobs shared by every parallel phase of the pipeline. Embedded
/// in RepairOptions so thread count flows through all engines (batch,
/// streaming, daemon) without separate plumbing.
struct ExecOptions {
  /// Maximum worker parallelism. 0 selects std::thread::hardware_concurrency.
  /// 1 forces fully sequential execution (no pool dispatch at all), which is
  /// the reference behavior every multi-threaded run must reproduce
  /// bit-identically.
  int num_threads = 0;

  /// Work items per parallel shard, for every phase: trajectory-graph
  /// probe vertices, clique-enumeration seeds (and candidates in the rarity
  /// pass), and selection indices. kGrainAuto (the default) lets the cost
  /// model in exec/grain.h pick each phase's grain from its item count,
  /// thread budget and calibration; any positive value is an unconditional
  /// override for every phase. No grain ever changes an output byte.
  size_t grain = kGrainAuto;

  /// `num_threads` with the 0 default resolved against the hardware.
  int ResolvedThreads() const {
    if (num_threads > 0) return num_threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }

  Status Validate() const {
    if (num_threads < 0) {
      return Status::InvalidArgument("exec.num_threads must be >= 0");
    }
    // grain: every size_t is valid — kGrainAuto (0) selects the cost
    // model, anything else is an explicit per-shard item count.
    return Status::OK();
  }
};

}  // namespace idrepair

#endif  // IDREPAIR_EXEC_EXEC_OPTIONS_H_

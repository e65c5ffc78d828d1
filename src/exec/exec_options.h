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

  /// Minimum number of work items (trajectories, vertices) per parallel
  /// task. Shards smaller than this are merged with their neighbor so tiny
  /// inputs never pay dispatch overhead.
  size_t min_partition_grain = 64;

  /// Number of clique-enumeration seed vertices (and, for the rarity
  /// pass, candidate repairs) per work item of intra-component candidate
  /// generation. kGrainAuto (the default) lets the cost model in
  /// exec/grain.h pick from the work-item count and thread budget; any
  /// positive value is an unconditional override. Seeds root whole search
  /// subtrees, so they are coarser work items than trajectories; a smaller
  /// grain keeps one hot clique from serializing the phase while small
  /// components still run inline.
  size_t min_candidate_grain = kGrainAuto;

  /// Number of selection-phase work items (candidates to sort, repair-graph
  /// vertices to build) per shard.
  /// kGrainAuto (the default) defers to the cost model with the selection
  /// calibration; any positive value overrides it. Selection work items are
  /// much cheaper than clique seeds — a comparison or a flag write — so the
  /// calibrated grain is coarser: below it the dispatch overhead exceeds
  /// the work, and typical inputs stay on the serial reference path.
  size_t min_selection_grain = kGrainAuto;

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
    if (min_partition_grain == 0) {
      return Status::InvalidArgument(
          "exec.min_partition_grain must be >= 1");
    }
    // min_candidate_grain / min_selection_grain: every size_t is valid —
    // kGrainAuto (0) selects the cost model, anything else is an explicit
    // per-shard item floor.
    return Status::OK();
  }
};

}  // namespace idrepair

#endif  // IDREPAIR_EXEC_EXEC_OPTIONS_H_

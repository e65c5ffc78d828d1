#ifndef IDREPAIR_EXEC_GRAIN_H_
#define IDREPAIR_EXEC_GRAIN_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace idrepair {

/// Sentinel grain value meaning "let the cost model pick" (CLI spelling:
/// `auto`). Stored in the ExecOptions grain fields, where it is the
/// default; any positive value is an explicit override that wins over the
/// model unconditionally.
inline constexpr size_t kGrainAuto = 0;

/// How many shards per thread the auto model aims for. More shards than
/// threads is deliberate: shard k+1 starts the moment a worker drains
/// shard k, so a skewed shard no longer pins the whole phase to its
/// slowest peer. 4 keeps the tail short without multiplying per-shard
/// fixed costs (dispatch, slot construction, merge walk) beyond noise.
inline constexpr size_t kAutoShardsPerThread = 4;

/// Calibration floors: the smallest number of work items per shard for
/// which one pool dispatch is cheaper than just doing the work inline.
/// Measured on the tier-1 bench workloads (see DESIGN.md §10): a clique
/// seed roots a whole search subtree, so even a handful amortize a
/// dispatch; selection items are a comparison or a flag write, so
/// thousands are needed before the pool pays for itself.
inline constexpr size_t kCandidateGrainCalibration = 4;
inline constexpr size_t kSelectionGrainCalibration = 512;

/// The auto cost model as a pure function: the grain (items per shard)
/// for `items` work items on `threads` threads with the given calibration
/// floor. Properties relied on by callers and pinned in exec_test:
///  - threads <= 1 (or items == 0): returns max(items, 1), i.e. a single
///    shard — the serial reference schedule.
///  - otherwise: ceil(items / (threads * kAutoShardsPerThread)), floored
///    at `calibration` — never below 1, never above `items`.
size_t ComputeAutoGrain(size_t items, int threads, size_t calibration);

/// Resolves a requested grain against the model: an explicit request
/// (anything but kGrainAuto) is returned untouched — override precedence —
/// and kGrainAuto defers to ComputeAutoGrain.
size_t ResolveGrain(size_t requested, size_t items, int threads,
                    size_t calibration);

/// Parses a CLI grain flag value: "auto" (case-sensitive) yields
/// kGrainAuto, a positive integer yields itself, everything else (zero,
/// negatives, trailing junk) is an InvalidArgument naming `flag`.
Result<size_t> ParseGrainValue(const std::string& text,
                               const std::string& flag);

}  // namespace idrepair

#endif  // IDREPAIR_EXEC_GRAIN_H_

#ifndef IDREPAIR_GEN_SYNTHETIC_H_
#define IDREPAIR_GEN_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "gen/dataset.h"
#include "gen/error_model.h"
#include "gen/travel_time.h"
#include "graph/transition_graph.h"

namespace idrepair {

/// Parameters of the synthetic trajectory workload of §6.1.1.
struct SyntheticConfig {
  /// Number of original (true) trajectories to sample before error
  /// injection. The paper's §6.3 experiments use 500.
  size_t num_trajectories = 500;

  /// Per-record probability of ID misrecognition (paper default 20%).
  double record_error_rate = 0.2;

  /// Per-record probability of removal, applied after error injection
  /// (paper §6.3.3; default 0 = complete dataset).
  double record_missing_rate = 0.0;

  /// Maximum locations in a sampled valid path (should not exceed the θ
  /// used when repairing).
  size_t max_path_len = 8;

  /// Entities enter the area uniformly over this window (seconds).
  Timestamp window_seconds = 3600;

  /// Optional non-uniform weights over the enumerated valid paths (in
  /// EnumerateValidPaths order). Empty = uniform.
  std::vector<double> path_weights;

  /// RNG seed; every dataset is reproducible from its config.
  uint64_t seed = 42;

  /// OCR-style error distance distribution.
  ErrorDistanceDistribution error_distances;

  /// Travel time spread (log-normal sigma).
  double travel_sigma = 0.35;

  /// Range the deterministic per-edge median travel time is drawn from,
  /// seconds. Long chain graphs need shorter legs for full traversals to
  /// fit the η bound (see bench/fig11).
  int64_t travel_median_lo = 60;
  int64_t travel_median_hi = 180;

  /// Rejects out-of-range rates, lengths, and travel/error parameters.
  /// Generation entry points call this, so a typo'd config fails loudly
  /// instead of silently producing a degenerate dataset.
  Status Validate() const;
};

/// Samples `config.num_trajectories` error-free trajectories on `graph`:
/// random valid paths, unique 7–9 letter IDs, per-edge travel times, start
/// times uniform in the window. Records come back chronologically sorted
/// with observed == true IDs.
Result<Dataset> GenerateCleanDataset(const TransitionGraph& graph,
                                     const SyntheticConfig& config);

/// Corrupts each record's observed ID with probability `rate`, drawing the
/// replacement from `model` while avoiding other entities' true IDs.
/// Re-running with different rates on the same clean dataset reproduces the
/// Fig 12 cohort ("injecting ID errors ... into an identical original
/// trajectory set").
void InjectIdErrors(Dataset& dataset, double rate, const IdErrorModel& model,
                    Rng& rng);

/// Removes each record independently with probability `rate` (Fig 13).
void InjectMissingRecords(Dataset& dataset, double rate, Rng& rng);

/// GenerateCleanDataset + InjectIdErrors + InjectMissingRecords in one call,
/// per `config`.
Result<Dataset> GenerateSyntheticDataset(const TransitionGraph& graph,
                                         const SyntheticConfig& config);

}  // namespace idrepair

#endif  // IDREPAIR_GEN_SYNTHETIC_H_

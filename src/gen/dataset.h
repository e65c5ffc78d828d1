#ifndef IDREPAIR_GEN_DATASET_H_
#define IDREPAIR_GEN_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/transition_graph.h"
#include "traj/tracking_record.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// A tracking record together with its ground-truth ID. The observed ID is
/// what the (simulated) recognition pipeline produced; the true ID is the
/// entity that actually passed the device.
struct GroundTruthRecord {
  std::string true_id;
  std::string observed_id;
  LocationId loc = kInvalidLocation;
  Timestamp ts = 0;

  bool corrupted() const { return true_id != observed_id; }

  friend bool operator==(const GroundTruthRecord& a,
                         const GroundTruthRecord& b) = default;
};

/// A labeled dataset: the transition graph plus ground-truth-annotated
/// records. This mirrors the paper's manually labeled real dataset ("we
/// obtain a labeled dataset that contains both the raw and the true
/// values", §6.1.1).
struct Dataset {
  TransitionGraph graph;
  /// Record order is not significant; the bundled generators emit
  /// chronologically sorted records, and trajectory construction re-sorts.
  std::vector<GroundTruthRecord> records;

  /// Records as the repair pipeline sees them (observed IDs).
  std::vector<TrackingRecord> ObservedRecords() const;

  /// Records with ground-truth IDs (the error-free view).
  std::vector<TrackingRecord> TrueRecords() const;

  /// Trajectories composed from observed IDs — the repair input.
  TrajectorySet BuildObservedTrajectories() const;

  /// Trajectories composed from true IDs — the repair target.
  TrajectorySet BuildTrueTrajectories() const;

  /// Number of distinct true entities.
  size_t NumEntities() const;

  /// Fraction of records whose observed ID differs from the true ID.
  double RecordErrorRate() const;

  /// Sorts `records` by (timestamp, location, true ID), the order the
  /// bundled generators emit.
  void SortChronological();
};

/// Builds a labeled dataset from two parallel record files: the observed
/// records and the manually labeled true records. Records are matched by
/// (timestamp, location) — the fields the paper assumes error-free — so the
/// files may be in any order but must describe the same capture events.
Result<Dataset> MakeLabeledDataset(const TransitionGraph& graph,
                                   std::vector<TrackingRecord> observed,
                                   std::vector<TrackingRecord> truth);

}  // namespace idrepair

#endif  // IDREPAIR_GEN_DATASET_H_

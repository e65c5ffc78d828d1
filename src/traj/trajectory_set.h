#ifndef IDREPAIR_TRAJ_TRAJECTORY_SET_H_
#define IDREPAIR_TRAJ_TRAJECTORY_SET_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/transition_graph.h"
#include "traj/tracking_record.h"
#include "traj/trajectory.h"

namespace idrepair {

/// Dense index of a trajectory within a TrajectorySet.
using TrajIndex = uint32_t;

/// The input of the repair problem: a set of trajectories composed from raw
/// tracking records by grouping on the observed ID (assumption 1 of §2.3:
/// identical IDs, correct or not, belong to the same entity).
class TrajectorySet {
 public:
  TrajectorySet() = default;

  /// Groups `records` by observed ID and sorts each group chronologically.
  /// Trajectory order is deterministic: by start time, then by ID.
  static TrajectorySet FromRecords(const std::vector<TrackingRecord>& records);

  /// Builds directly from already-formed trajectories (kept in given order).
  explicit TrajectorySet(std::vector<Trajectory> trajectories);

  size_t size() const { return trajectories_.size(); }
  bool empty() const { return trajectories_.empty(); }

  const Trajectory& at(TrajIndex i) const { return trajectories_[i]; }
  const std::vector<Trajectory>& trajectories() const { return trajectories_; }

  /// Total number of tracking records across all trajectories.
  size_t total_records() const { return total_records_; }

  /// The inverse of FromRecords: every record, trajectory by trajectory in
  /// set order, each trajectory's points in time order.
  /// FromRecords(set.Records()) reproduces a FromRecords-built set.
  std::vector<TrackingRecord> Records() const;

  /// Indices of trajectories that are invalid w.r.t. `graph` (IVTs).
  std::vector<TrajIndex> InvalidTrajectories(
      const TransitionGraph& graph) const;

  /// Index of the trajectory with the given observed ID, if any.
  /// IDs are unique within a set by construction of FromRecords.
  std::unordered_map<std::string, TrajIndex> BuildIdIndex() const;

 private:
  std::vector<Trajectory> trajectories_;
  size_t total_records_ = 0;
};

}  // namespace idrepair

#endif  // IDREPAIR_TRAJ_TRAJECTORY_SET_H_

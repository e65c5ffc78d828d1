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

/// The input of the repair problem: a set of trajectories, one per observed
/// ID (assumption 1 of §2.3: identical IDs, correct or not, belong to the
/// same entity), which the trajectory constructor enforces for every set.
class TrajectorySet {
 public:
  TrajectorySet() = default;

  /// Groups `records` by observed ID into trajectories and constructs the
  /// set from them.
  static TrajectorySet FromRecords(const std::vector<TrackingRecord>& records);

  /// Joins the trajectories that share an ID (Join, Definition 2.5) and
  /// orders the set by (start time, ID), which equals FromRecords over
  /// their records; an empty trajectory holds no record and is dropped.
  explicit TrajectorySet(std::vector<Trajectory> trajectories);

  size_t size() const { return trajectories_.size(); }
  bool empty() const { return trajectories_.empty(); }

  const Trajectory& at(TrajIndex i) const { return trajectories_[i]; }
  const std::vector<Trajectory>& trajectories() const { return trajectories_; }

  /// Total number of tracking records across all trajectories.
  size_t total_records() const { return total_records_; }

  /// The inverse of FromRecords: every record, trajectory by trajectory in
  /// set order, each trajectory's points in time order.
  /// FromRecords(set.Records()) reproduces the set.
  std::vector<TrackingRecord> Records() const;

  /// Indices of trajectories that are invalid w.r.t. `graph` (IVTs).
  std::vector<TrajIndex> InvalidTrajectories(
      const TransitionGraph& graph) const;

  /// Index of the trajectory with the given observed ID, if any.
  /// IDs are unique within every set by construction.
  std::unordered_map<std::string, TrajIndex> BuildIdIndex() const;

 private:
  std::vector<Trajectory> trajectories_;
  size_t total_records_ = 0;
};

}  // namespace idrepair

#endif  // IDREPAIR_TRAJ_TRAJECTORY_SET_H_

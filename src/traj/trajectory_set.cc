#include "traj/trajectory_set.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace idrepair {

TrajectorySet TrajectorySet::FromRecords(
    const std::vector<TrackingRecord>& records) {
  // std::map keeps ID grouping deterministic regardless of input order.
  std::map<std::string, std::vector<TrajectoryPoint>> by_id;
  for (const auto& r : records) {
    by_id[r.id].push_back(TrajectoryPoint{r.loc, r.ts});
  }
  std::vector<Trajectory> trajs;
  trajs.reserve(by_id.size());
  for (auto& [id, points] : by_id) {
    trajs.emplace_back(id, std::move(points));
  }
  std::sort(trajs.begin(), trajs.end(),
            [](const Trajectory& a, const Trajectory& b) {
              return std::forward_as_tuple(a.start_time(), a.id()) <
                     std::forward_as_tuple(b.start_time(), b.id());
            });
  return TrajectorySet(std::move(trajs));
}

TrajectorySet::TrajectorySet(std::vector<Trajectory> trajectories)
    : trajectories_(std::move(trajectories)) {
  for (const auto& t : trajectories_) total_records_ += t.size();
}

std::vector<TrackingRecord> TrajectorySet::Records() const {
  std::vector<TrackingRecord> records;
  records.reserve(total_records_);
  for (const auto& t : trajectories_) {
    for (const auto& p : t.points()) {
      records.push_back(TrackingRecord{t.id(), p.loc, p.ts});
    }
  }
  return records;
}

std::vector<TrajIndex> TrajectorySet::InvalidTrajectories(
    const TransitionGraph& graph) const {
  std::vector<TrajIndex> out;
  for (TrajIndex i = 0; i < trajectories_.size(); ++i) {
    if (!trajectories_[i].IsValid(graph)) out.push_back(i);
  }
  return out;
}

std::unordered_map<std::string, TrajIndex> TrajectorySet::BuildIdIndex()
    const {
  std::unordered_map<std::string, TrajIndex> index;
  index.reserve(trajectories_.size());
  for (TrajIndex i = 0; i < trajectories_.size(); ++i) {
    index.emplace(trajectories_[i].id(), i);
  }
  return index;
}

}  // namespace idrepair

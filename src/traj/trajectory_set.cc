#include "traj/trajectory_set.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "traj/merge.h"

namespace idrepair {

TrajectorySet TrajectorySet::FromRecords(
    const std::vector<TrackingRecord>& records) {
  std::unordered_map<std::string_view, std::vector<TrajectoryPoint>> by_id;
  for (const auto& r : records) by_id[r.id].push_back({r.loc, r.ts});
  std::vector<Trajectory> trajs;
  trajs.reserve(by_id.size());
  for (auto& [id, points] : by_id) {
    trajs.emplace_back(std::string(id), std::move(points));
  }
  return TrajectorySet(std::move(trajs));
}

TrajectorySet::TrajectorySet(std::vector<Trajectory> trajectories) {
  // The first trajectory of each ID joins the later ones.
  std::unordered_map<std::string_view, uint32_t> first;
  first.reserve(trajectories.size());
  std::vector<std::vector<const Trajectory*>> later(trajectories.size());
  std::vector<std::pair<Timestamp, uint32_t>> order;
  for (uint32_t i = 0; i < trajectories.size(); ++i) {
    if (trajectories[i].empty()) continue;
    auto [it, fresh] = first.try_emplace(trajectories[i].id(), i);
    if (fresh) {
      order.emplace_back(0, i);
    } else {
      later[it->second].push_back(&trajectories[i]);
    }
  }
  for (auto& [start, i] : order) {
    if (!later[i].empty()) {
      later[i].push_back(&trajectories[i]);
      trajectories[i] = Join(later[i], trajectories[i].id());
    }
    start = trajectories[i].start_time();
  }
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return trajectories[a.second].id() < trajectories[b.second].id();
  });
  trajectories_.reserve(order.size());
  for (const auto& [start, i] : order) {
    total_records_ += trajectories[i].size();
    trajectories_.push_back(std::move(trajectories[i]));
  }
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

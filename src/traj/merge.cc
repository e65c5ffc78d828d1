#include "traj/merge.h"

#include <algorithm>
#include <tuple>

namespace idrepair {

std::vector<MergedPoint> MergeChronological(
    std::span<const Trajectory* const> trajectories) {
  size_t total = 0;
  for (const Trajectory* t : trajectories) total += t->size();
  std::vector<MergedPoint> out;
  out.reserve(total);
  for (uint32_t s = 0; s < trajectories.size(); ++s) {
    for (const auto& p : trajectories[s]->points()) {
      out.push_back(MergedPoint{p.loc, p.ts, s});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MergedPoint& a, const MergedPoint& b) {
              return std::tie(a.ts, a.loc, a.source) <
                     std::tie(b.ts, b.loc, b.source);
            });
  return out;
}

std::vector<MergedPoint> MergeChronological(const Trajectory& a,
                                            const Trajectory& b) {
  const Trajectory* pair[] = {&a, &b};
  return MergeChronological(pair);
}

Trajectory Join(std::span<const Trajectory* const> trajectories,
                std::string target_id) {
  std::vector<TrajectoryPoint> points;
  for (const Trajectory* t : trajectories) {
    points.insert(points.end(), t->points().begin(), t->points().end());
  }
  return Trajectory(std::move(target_id), std::move(points));
}

}  // namespace idrepair

#include "baselines/neighborhood_repairer.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "repair/predicates.h"
#include "repair/repairer.h"
#include "repair/trajectory_graph.h"
#include "sim/edit_distance.h"

namespace idrepair {

Result<RepairResult> NeighborhoodRepairer::Repair(
    const TrajectorySet& set) const {
  IDREPAIR_RETURN_NOT_OK(options_.Validate());
  RunRecorder recorder("baseline_neighborhood", set, options_.exec);
  const std::vector<bool> is_valid = recorder.Validity(*graph_);
  RepairResult result;

  PredicateEvaluator pred(*graph_, options_.theta, options_.eta);
  TrajectoryGraph gm(set, pred, options_);
  IDREPAIR_RETURN_NOT_OK(gm.status());
  result.stats.gm_edges = gm.num_edges();

  // Candidate isolated rewrites: relabel dirty vertex v to neighbor w's
  // label, valid only when the *pair* v+w merges into a valid trajectory
  // (the binary neighborhood constraint). Neighbors that never satisfy it
  // correspond to removed instance edges.
  struct Candidate {
    size_t cost;
    TrajIndex vertex;
    TrajIndex donor;
  };
  std::vector<Candidate> rewrites;
  for (TrajIndex v = 0; v < set.size(); ++v) {
    if (is_valid[v]) continue;
    for (TrajIndex w : gm.Neighbors(v)) {
      const Trajectory* pair[] = {&set.at(v), &set.at(w)};
      if (!pred.Jnb(pair)) continue;
      rewrites.push_back(
          Candidate{EditDistance(set.at(v).id(), set.at(w).id()), v, w});
    }
  }
  // Minimum change first; both endpoints settle so labels never chain.
  std::sort(rewrites.begin(), rewrites.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.cost, a.vertex, a.donor) <
                     std::tie(b.cost, b.vertex, b.donor);
            });
  std::vector<bool> settled(set.size(), false);
  for (const auto& c : rewrites) {
    if (settled[c.vertex] || settled[c.donor]) continue;
    settled[c.vertex] = true;
    settled[c.donor] = true;
    const std::string& label = set.at(c.donor).id();
    if (set.at(c.vertex).id() != label) result.rewrites[c.vertex] = label;
  }
  result.stats.num_candidates = rewrites.size();
  result.repaired = ApplyRewrites(set, result.rewrites);
  recorder.Finish(&result);
  return result;
}

}  // namespace idrepair

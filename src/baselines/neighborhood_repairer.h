#ifndef IDREPAIR_BASELINES_NEIGHBORHOOD_REPAIRER_H_
#define IDREPAIR_BASELINES_NEIGHBORHOOD_REPAIRER_H_

#include <string_view>
#include <utility>

#include "graph/transition_graph.h"
#include "repair/options.h"
#include "repair/repairer.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// Adaptation of the neighborhood-constraint label-repair approach of Song
/// et al. (PVLDB 2014) to trajectory ID repair, following the recipe the
/// paper uses for its §6.5.2 comparison: the transition graph Gt is the
/// constraint graph, the trajectory graph Gm the instance graph, and the
/// relabeling cost is the edit distance between ID strings. As in the
/// paper's variant, instance edges are effectively removed whenever no
/// consistent relabel exists, so the greedy always terminates.
///
/// The algorithm performs *isolated, binary* label rewritings under the
/// minimum-change principle: a dirty (invalid) trajectory v may take the
/// label of a single Gm neighbor w when merging v with w alone yields a
/// valid trajectory; candidate rewrites are applied globally in increasing
/// edit-distance order, and both endpoints of an applied rewrite are
/// settled so labels never chain or swap. This inherits exactly the
/// limitations §1.1 attributes to the approach:
///
///  (1) no multi-ID rewrites — an entity fractured into three or more
///      fragments can never be reassembled, because no *pair* of its
///      fragments forms a valid trajectory;
///  (2) binary constraints only — the relationship between several
///      trajectories is never considered jointly;
///  (3) minimum change can prefer a cheap wrong donor over the right
///      repair that a global view would pick.
///
/// As a Repairer it fills rewrites/repaired/stats only (no candidate list;
/// num_candidates counts the isolated rewrites that pass the constraint).
class NeighborhoodRepairer : public Repairer {
 public:
  /// `options` supplies the θ/η bounds used to build the instance graph
  /// (same bounds as the core pipeline, for a fair comparison).
  NeighborhoodRepairer(const TransitionGraph& graph, RepairOptions options)
      : graph_(&graph), options_(std::move(options)) {}

  Result<RepairResult> Repair(const TrajectorySet& set) const override;

  std::string_view name() const override { return "neighborhood"; }

 private:
  const TransitionGraph* graph_;
  RepairOptions options_;
};

}  // namespace idrepair

#endif  // IDREPAIR_BASELINES_NEIGHBORHOOD_REPAIRER_H_

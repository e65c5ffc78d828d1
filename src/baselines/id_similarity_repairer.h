#ifndef IDREPAIR_BASELINES_ID_SIMILARITY_REPAIRER_H_
#define IDREPAIR_BASELINES_ID_SIMILARITY_REPAIRER_H_

#include <cstddef>
#include <string_view>
#include <utility>

#include "graph/transition_graph.h"
#include "repair/options.h"
#include "repair/repairer.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// The ID-similarity baseline of §6.5.2: trajectories whose IDs are within
/// `max_edit_distance` (the paper uses 3) are considered to come from the
/// same entity and are merged. Clustering is transitive (union-find over
/// qualifying pairs); each cluster's target ID is chosen by the same
/// length-weighted rule as the core pipeline (Eq. 5). No movement
/// constraints are consulted — that is the point of the comparison.
///
/// As a Repairer it fills rewrites/repaired/stats only (no candidate list
/// — the baseline has no notion of one). It takes the graph and options
/// every engine is built from, for its stats alone: num_invalid counts the
/// IVTs on `graph` and threads_used reports `options.exec`, so the four
/// engines describe one input alike.
class IdSimilarityRepairer : public Repairer {
 public:
  /// The graph must outlive the repairer.
  IdSimilarityRepairer(const TransitionGraph& graph, RepairOptions options,
                       size_t max_edit_distance = 3)
      : graph_(&graph),
        options_(std::move(options)),
        max_edit_distance_(max_edit_distance) {}

  Result<RepairResult> Repair(const TrajectorySet& set) const override;

  std::string_view name() const override { return "idsim"; }

 private:
  const TransitionGraph* graph_;
  RepairOptions options_;
  size_t max_edit_distance_;
};

}  // namespace idrepair

#endif  // IDREPAIR_BASELINES_ID_SIMILARITY_REPAIRER_H_

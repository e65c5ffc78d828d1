#ifndef IDREPAIR_REPAIR_TRAJECTORY_GRAPH_H_
#define IDREPAIR_REPAIR_TRAJECTORY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "repair/options.h"
#include "repair/predicates.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// The trajectory graph Gm (§3.1): one vertex per trajectory, an undirected
/// edge wherever the cex predicate holds. Cliques of Gm are the candidate
/// joinable subsets (Theorem 3.2).
///
/// Vertices inherit the TrajectorySet order, which every set's constructor
/// makes a start-time order — the property the MCP pruning of clique
/// generation relies on (Theorem 5.3).
class TrajectoryGraph {
 public:
  /// Statistics of one construction, for the Fig 14(a) experiment.
  struct BuildStats {
    size_t cex_evaluations = 0;  // one per pair surviving the pre-filter
    size_t edges = 0;
  };

  /// Builds Gm over `set`. When `options.use_lig` is set, candidate pairs
  /// come from a Length-Indexed Grids index (§5.1); otherwise every pair is
  /// tested. Internally infeasible trajectories become isolated vertices.
  /// A failed build (see status()) leaves every vertex isolated.
  TrajectoryGraph(const TrajectorySet& set, const PredicateEvaluator& pred,
                  const RepairOptions& options);

  size_t num_vertices() const { return adj_.size(); }
  size_t num_edges() const { return stats_.edges; }

  /// Sorted neighbor list of vertex `v`.
  const std::vector<TrajIndex>& Neighbors(TrajIndex v) const {
    return adj_[v];
  }

  /// O(log deg) adjacency test.
  bool HasEdge(TrajIndex u, TrajIndex v) const;

  /// True iff the trajectory can participate in some joinable subset on its
  /// own merits (InternallyFeasible).
  bool IsFeasible(TrajIndex v) const { return feasible_[v]; }

  const BuildStats& stats() const { return stats_; }

  /// Outcome of the parallel build: non-OK when the exec layer failed to
  /// run a block, in which case the graph holds no edges and must not be
  /// used for repair.
  const Status& status() const { return status_; }

 private:
  void AddEdge(TrajIndex u, TrajIndex v);

  std::vector<std::vector<TrajIndex>> adj_;
  std::vector<bool> feasible_;
  BuildStats stats_;
  Status status_;
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_TRAJECTORY_GRAPH_H_

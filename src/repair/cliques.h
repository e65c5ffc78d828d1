#ifndef IDREPAIR_REPAIR_CLIQUES_H_
#define IDREPAIR_REPAIR_CLIQUES_H_

#include <functional>
#include <vector>

#include "repair/options.h"
#include "repair/predicates.h"
#include "repair/trajectory_graph.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// Enumerates the qualified cliques of the trajectory graph (Algorithm 2):
/// every non-empty clique whose member trajectories hold at most θ records
/// in total and whose size is at most ζ. Vertices are added in TrajectorySet
/// order (= start-time order), which both makes the enumeration
/// deterministic and enables the minimum-cover-prefix pruning of Algorithm 4
/// when `options.use_mcp_pruning` is set: a partial clique whose MCP is not
/// a prefix of a valid path is discarded together with its whole subtree
/// (Theorem 5.3).
class CliqueEnumerator {
 public:
  /// Called for each qualified clique (members in ascending index order)
  /// together with the chronologically merged record sequence of its
  /// members. The merge is maintained incrementally during the search —
  /// one O(q) two-way merge per node — and shared between the pck check
  /// and the caller's jnb check, so no sequence is built twice.
  using Callback = std::function<void(const std::vector<TrajIndex>&,
                                      const std::vector<MergedPoint>&)>;

  struct Stats {
    size_t cliques_emitted = 0;
    size_t nodes_visited = 0;  // search-tree nodes, including pruned ones
    size_t pck_pruned = 0;     // subtrees cut by the MCP condition

    /// Deterministic reduction for sharded enumeration: counters add.
    void MergeFrom(const Stats& other) {
      cliques_emitted += other.cliques_emitted;
      nodes_visited += other.nodes_visited;
      pck_pruned += other.pck_pruned;
    }
  };

  CliqueEnumerator(const TrajectorySet& set, const TrajectoryGraph& graph,
                   const PredicateEvaluator& pred,
                   const RepairOptions& options)
      : set_(&set), graph_(&graph), pred_(&pred), options_(&options) {}

  /// Runs the enumeration, invoking `cb` per clique. Returns statistics.
  Stats Enumerate(const Callback& cb) const;

  /// The top-level search roots: every feasible vertex, ascending. Each
  /// seed owns the subtree of cliques whose smallest member it is, so the
  /// full enumeration is exactly the concatenation of the per-seed
  /// subtrees in seed order — the unit the parallel generator shards over.
  std::vector<TrajIndex> SeedVertices() const;

  /// Enumerates only the cliques rooted at seeds[begin, end), where `seeds`
  /// is SeedVertices() (subtrees extend through Gm neighbors to later
  /// seeds; they never reach earlier ones). Running disjoint contiguous
  /// ranges and concatenating the emissions in range order reproduces
  /// Enumerate() exactly, callbacks and stats both.
  Stats EnumerateSeedRange(const std::vector<TrajIndex>& seeds, size_t begin,
                           size_t end, const Callback& cb) const;

 private:
  void Extend(std::vector<TrajIndex>& clique,
              const std::vector<MergedPoint>& merged,
              const std::vector<TrajIndex>& candidates, const Callback& cb,
              Stats* stats) const;

  /// One search-tree node: adds candidates[idx] to the clique, emits, and
  /// recurses. Factored out of Extend so the seed-range entry point shares
  /// the exact traversal.
  void VisitNode(const std::vector<TrajIndex>& candidates, size_t idx,
                 std::vector<TrajIndex>& clique,
                 const std::vector<MergedPoint>& merged, const Callback& cb,
                 Stats* stats) const;

  const TrajectorySet* set_;
  const TrajectoryGraph* graph_;
  const PredicateEvaluator* pred_;
  const RepairOptions* options_;
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_CLIQUES_H_

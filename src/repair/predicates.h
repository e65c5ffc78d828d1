#ifndef IDREPAIR_REPAIR_PREDICATES_H_
#define IDREPAIR_REPAIR_PREDICATES_H_

#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/reachability.h"
#include "graph/transition_graph.h"
#include "traj/merge.h"
#include "traj/trajectory.h"
#include "traj/tracking_record.h"

namespace idrepair {

/// Evaluates the three joinability predicates of the paper over a fixed
/// transition graph:
///
///  * cex (§3.2.1, Algorithm 1) — can two trajectories coexist in some
///    joinable subset? Necessary condition for an edge of the trajectory
///    graph Gm.
///  * jnb (§3.2.1) — is a set of trajectories a joinable subset, i.e. does
///    the chronological merge of their records form a valid path within the
///    θ/η bounds?
///  * pck (§5.2) — does the minimum cover prefix of a (start-time-sorted)
///    set form a prefix of a valid path? Used to prune clique generation
///    (Theorem 5.3).
///
/// The state derived from Gt is built once, at construction: the hop-bounded
/// reachability matrix at bound θ−1 — the only hop budget the evaluator
/// ever queries — so each cex hop query is cheap (the preprocessing of
/// §4.1.1), and the hops to an exit that pck's "an exit is still reachable"
/// check reads (§5.2). After construction the evaluator is immutable and
/// safe to share across threads.
class PredicateEvaluator {
 public:
  PredicateEvaluator(const TransitionGraph& graph, size_t theta,
                     Timestamp eta);

  /// True iff a trajectory could be a fragment of some valid trajectory on
  /// its own: strictly increasing timestamps, length <= θ, span <= η, and
  /// every consecutive location pair reachable within θ−1 hops. Trajectories
  /// failing this can never appear in any joinable subset.
  bool InternallyFeasible(const Trajectory& t) const;

  /// The cex predicate (Algorithm 1). Assumes both arguments are
  /// individually internally feasible (callers pre-filter with
  /// InternallyFeasible); only cross-trajectory adjacencies are re-checked,
  /// exactly as in the paper's algorithm.
  bool Cex(const Trajectory& a, const Trajectory& b) const;

  /// The jnb predicate over a trajectory set.
  bool Jnb(std::span<const Trajectory* const> trajectories) const;

  /// jnb over an already-merged record sequence.
  bool JnbMerged(const std::vector<MergedPoint>& merged) const;

  /// The pck predicate over a trajectory set sorted by start time: the
  /// minimum cover prefix must be a prefix of a valid path.
  bool Pck(std::span<const Trajectory* const> trajectories) const;

  /// pck over an already-merged record sequence; `num_sources` is the number
  /// of distinct trajectories contributing to it.
  bool PckMerged(const std::vector<MergedPoint>& merged,
                 uint32_t num_sources) const;

  const TransitionGraph& graph() const { return *graph_; }
  size_t theta() const { return theta_; }
  Timestamp eta() const { return eta_; }

 private:
  const TransitionGraph* graph_;
  ReachabilityMatrix reach_;
  std::vector<uint32_t> hops_to_exit_;  // HopsToExit(*graph_)
  size_t theta_;
  Timestamp eta_;
};

/// One PredicateEvaluator for a fixed graph and θ/η, built on the first
/// Get() and shared by every caller after it. The build is the expensive
/// part on city-scale graphs, so an engine, or every engine a daemon runs
/// over one registered graph, pays it once. Construction does no graph
/// work and no allocation. Get() is thread-safe: concurrent first callers
/// wait for the one build, and the built evaluator is immutable.
///
/// The graph must outlive the holder. The once_flag makes the holder
/// neither copyable nor movable, so borrowers can keep a reference to it.
class LazyPredicateEvaluator {
 public:
  LazyPredicateEvaluator(const TransitionGraph& graph, size_t theta,
                         Timestamp eta)
      : graph_(&graph), theta_(theta), eta_(eta) {}

  /// The evaluator, built on the first call.
  const PredicateEvaluator& Get() const;

  const TransitionGraph& graph() const { return *graph_; }
  size_t theta() const { return theta_; }
  Timestamp eta() const { return eta_; }

 private:
  const TransitionGraph* graph_;
  size_t theta_;
  Timestamp eta_;
  mutable std::once_flag once_;
  mutable std::optional<PredicateEvaluator> evaluator_;
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_PREDICATES_H_

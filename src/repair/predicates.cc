#include "repair/predicates.h"

#include <algorithm>

#include "obs/metrics.h"

namespace idrepair {

const PredicateEvaluator& LazyPredicateEvaluator::Get() const {
  std::call_once(once_, [this] {
    evaluator_.emplace(*graph_, theta_, eta_);
    if (obs::Enabled()) {
      static obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
          "idrepair_predicate_evaluator_builds_total",
          obs::Stability::kRuntime,
          "PredicateEvaluator builds by LazyPredicateEvaluator (one per "
          "engine, or per registered graph in the daemon)");
      builds->Increment();
    }
  });
  return *evaluator_;
}

PredicateEvaluator::PredicateEvaluator(const TransitionGraph& graph,
                                       size_t theta, Timestamp eta)
    : graph_(&graph),
      // Every query the evaluator issues is bounded by θ−1 hops, so the
      // hop-ball build at that bound answers them all exactly.
      reach_(ReachabilityMatrix::BuildBounded(
          graph, theta == 0 ? 0 : static_cast<uint32_t>(theta) - 1)),
      hops_to_exit_(HopsToExit(graph)),
      theta_(theta),
      eta_(eta) {}

bool PredicateEvaluator::InternallyFeasible(const Trajectory& t) const {
  if (t.empty() || t.size() > theta_) return false;
  if (t.TimeSpan() > eta_) return false;
  uint32_t max_hops = static_cast<uint32_t>(theta_) - 1;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t.point(i).ts >= t.point(i + 1).ts) return false;
    if (!reach_.Reachable(t.point(i).loc, t.point(i + 1).loc, max_hops)) {
      return false;
    }
  }
  return true;
}

bool PredicateEvaluator::Cex(const Trajectory& a, const Trajectory& b) const {
  // Line 1–2 of Algorithm 1: the length bound θ.
  if (a.size() + b.size() > theta_) return false;
  // Cheap span pre-check before paying for the merge.
  Timestamp lo = std::min(a.start_time(), b.start_time());
  Timestamp hi = std::max(a.end_time(), b.end_time());
  if (hi - lo > eta_) return false;  // lines 3–5
  auto merged = MergeChronological(a, b);
  // Lines 6–9: cross-trajectory adjacencies must be reachable within θ−1
  // hops. Equal timestamps are rejected — an entity cannot be captured at
  // two places at once, so no superset of {a, b} could ever satisfy jnb.
  uint32_t max_hops = static_cast<uint32_t>(theta_) - 1;
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    if (merged[i].source == merged[i + 1].source) continue;
    if (merged[i].ts == merged[i + 1].ts) return false;
    if (!reach_.Reachable(merged[i].loc, merged[i + 1].loc, max_hops)) {
      return false;
    }
  }
  return true;
}

bool PredicateEvaluator::Jnb(
    std::span<const Trajectory* const> trajectories) const {
  if (trajectories.empty()) return false;
  size_t total = 0;
  for (const Trajectory* t : trajectories) total += t->size();
  if (total == 0 || total > theta_) return false;
  return JnbMerged(MergeChronological(trajectories));
}

bool PredicateEvaluator::JnbMerged(
    const std::vector<MergedPoint>& merged) const {
  if (merged.empty() || merged.size() > theta_) return false;
  if (merged.back().ts - merged.front().ts > eta_) return false;
  // Every adjacent pair — same trajectory or not — must be an edge of Gt,
  // with strictly increasing timestamps; the ends must be entrance/exit.
  if (!graph_->IsEntrance(merged.front().loc)) return false;
  if (!graph_->IsExit(merged.back().loc)) return false;
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    if (merged[i].ts >= merged[i + 1].ts) return false;
    if (!graph_->HasEdge(merged[i].loc, merged[i + 1].loc)) return false;
  }
  return true;
}

bool PredicateEvaluator::Pck(
    std::span<const Trajectory* const> trajectories) const {
  if (trajectories.empty()) return false;
  return PckMerged(MergeChronological(trajectories),
                   static_cast<uint32_t>(trajectories.size()));
}

bool PredicateEvaluator::PckMerged(const std::vector<MergedPoint>& merged,
                                   uint32_t num_sources) const {
  if (merged.empty()) return false;
  // The minimum cover prefix ends at the first position where every source
  // trajectory has contributed at least one record (Definition 5.2).
  std::vector<bool> seen(num_sources, false);
  uint32_t distinct = 0;
  size_t prefix_end = merged.size();  // exclusive
  for (size_t i = 0; i < merged.size(); ++i) {
    if (!seen[merged[i].source]) {
      seen[merged[i].source] = true;
      if (++distinct == num_sources) {
        prefix_end = i + 1;
        break;
      }
    }
  }
  // Prefix of a valid path: starts at an entrance, consecutive edges,
  // strictly increasing timestamps, and an exit still reachable at the end.
  if (!graph_->IsEntrance(merged.front().loc)) return false;
  for (size_t i = 0; i + 1 < prefix_end; ++i) {
    if (merged[i].ts >= merged[i + 1].ts) return false;
    if (!graph_->HasEdge(merged[i].loc, merged[i + 1].loc)) return false;
  }
  return hops_to_exit_[merged[prefix_end - 1].loc] !=
         ReachabilityMatrix::kUnreachable;
}

}  // namespace idrepair

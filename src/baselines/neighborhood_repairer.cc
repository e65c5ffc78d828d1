#include "baselines/neighborhood_repairer.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "repair/predicates.h"
#include "repair/repairer.h"
#include "repair/trajectory_graph.h"
#include "sim/edit_distance.h"

namespace idrepair {

namespace {

/// Baseline instrumentation, the same attempted/completed/work scheme the
/// candidate-based engines emit so chaos runs can compare them uniformly.
/// All counters are pure functions of the input (kStable).
struct NeighborhoodInstruments {
  obs::Counter* attempts;
  obs::Counter* completed;
  obs::Counter* candidates;
  obs::Counter* rewrites;

  static NeighborhoodInstruments& Get() {
    static NeighborhoodInstruments* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* bi = new NeighborhoodInstruments();
      bi->attempts = reg.GetCounter(
          "idrepair_baseline_neighborhood_attempts_total",
          obs::Stability::kStable,
          "NeighborhoodRepairer Repair() entries (attempted)");
      bi->completed = reg.GetCounter(
          "idrepair_baseline_neighborhood_runs_total",
          obs::Stability::kStable,
          "NeighborhoodRepairer Repair() runs completed");
      bi->candidates = reg.GetCounter(
          "idrepair_baseline_neighborhood_candidates_total",
          obs::Stability::kStable,
          "Isolated-rewrite candidates passing the binary neighborhood "
          "constraint");
      bi->rewrites = reg.GetCounter(
          "idrepair_baseline_neighborhood_rewrites_total",
          obs::Stability::kStable,
          "Trajectory ID rewrites applied by NeighborhoodRepairer");
      return bi;
    }();
    return *m;
  }
};

}  // namespace

Result<RepairResult> NeighborhoodRepairer::Repair(
    const TrajectorySet& set) const {
  IDREPAIR_RETURN_NOT_OK(options_.Validate());
  if (obs::Enabled()) NeighborhoodInstruments::Get().attempts->Increment();
  Stopwatch watch;
  RepairResult result;
  result.stats.num_trajectories = set.size();

  PredicateEvaluator pred(*graph_, options_.theta, options_.eta);
  TrajectoryGraph gm(set, pred, options_);

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
    if (set.at(v).IsValid(*graph_)) continue;
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
  result.repaired = ApplyRewrites(set, result.rewrites);
  result.stats.seconds_total = watch.ElapsedSeconds();
  if (obs::Enabled()) {
    NeighborhoodInstruments& inst = NeighborhoodInstruments::Get();
    inst.candidates->Increment(rewrites.size());
    inst.rewrites->Increment(result.rewrites.size());
    inst.completed->Increment();
  }
  return result;
}

}  // namespace idrepair

#include "repair/trajectory_graph.h"

#include <algorithm>
#include <utility>

#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "lig/length_indexed_grids.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Per-shard scratch of the parallel build. Each shard owns one slot, so
/// tasks never share mutable state; the constructor merges slots in shard
/// order, which makes the finished graph bit-identical to a sequential
/// build for every thread count.
struct ShardScratch {
  std::vector<std::pair<TrajIndex, TrajIndex>> edges;
  size_t cex_evaluations = 0;
};

}  // namespace

TrajectoryGraph::TrajectoryGraph(const TrajectorySet& set,
                                 const PredicateEvaluator& pred,
                                 const RepairOptions& options) {
  size_t n = set.size();
  adj_.assign(n, {});
  feasible_.assign(n, false);
  for (TrajIndex i = 0; i < n; ++i) {
    feasible_[i] = pred.InternallyFeasible(set.at(i));
  }

  // Shard the pairwise/LIG cex-evaluation loop over the probe vertex i.
  // Shard boundaries depend only on (n, threads, grain), never on timing.
  const int threads = options.exec.ResolvedThreads();
  auto shards = SplitRange(
      n, threads,
      ResolveGrain(options.exec.grain, n, threads,
                   kPartitionGrainCalibration));
  std::vector<ShardScratch> scratch(shards.size());

  if (options.use_lig) {
    LengthIndexedGrids::Options lig_opts;
    lig_opts.theta = options.theta;
    lig_opts.eta = options.eta;
    lig_opts.time_bin = options.time_bin;
    const LengthIndexedGrids index(set, lig_opts);
    (void)ParallelFor(
        &ThreadPool::Default(), shards,
        [&](size_t shard, size_t begin, size_t end) {
          obs::TraceSpan span("gm.shard", shard);
          ShardScratch& out = scratch[shard];
          std::vector<TrajIndex> candidates;
          for (TrajIndex i = static_cast<TrajIndex>(begin); i < end; ++i) {
            if (!feasible_[i]) continue;
            candidates.clear();
            index.CollectCandidates(i, &candidates);
            for (TrajIndex j : candidates) {
              if (j <= i || !feasible_[j]) continue;  // each pair once
              ++out.cex_evaluations;
              if (pred.Cex(set.at(i), set.at(j))) out.edges.emplace_back(i, j);
            }
          }
          return Status::OK();
        });
  } else {
    (void)ParallelFor(
        &ThreadPool::Default(), shards,
        [&](size_t shard, size_t begin, size_t end) {
          obs::TraceSpan span("gm.shard", shard);
          ShardScratch& out = scratch[shard];
          for (TrajIndex i = static_cast<TrajIndex>(begin); i < end; ++i) {
            if (!feasible_[i]) continue;
            for (TrajIndex j = i + 1; j < n; ++j) {
              if (!feasible_[j]) continue;
              ++out.cex_evaluations;
              if (pred.Cex(set.at(i), set.at(j))) out.edges.emplace_back(i, j);
            }
          }
          return Status::OK();
        });
  }

  // Deterministic merge: shard order, then the usual neighbor sort.
  for (const ShardScratch& out : scratch) {
    stats_.cex_evaluations += out.cex_evaluations;
    for (const auto& [i, j] : out.edges) AddEdge(i, j);
  }
  for (auto& nbrs : adj_) std::sort(nbrs.begin(), nbrs.end());
}

void TrajectoryGraph::AddEdge(TrajIndex u, TrajIndex v) {
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++stats_.edges;
}

bool TrajectoryGraph::HasEdge(TrajIndex u, TrajIndex v) const {
  const auto& nbrs = adj_[u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace idrepair

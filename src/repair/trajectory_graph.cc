#include "repair/trajectory_graph.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "lig/length_indexed_grids.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Per-block slot of the parallel build. Each block owns one slot, so
/// tasks never share mutable state; the constructor merges slots in block
/// order, which makes the finished graph bit-identical to a sequential
/// build for every thread count.
struct BlockEdges {
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

  std::optional<LengthIndexedGrids> index;
  if (options.use_lig) {
    LengthIndexedGrids::Options lig_opts;
    lig_opts.theta = options.theta;
    lig_opts.eta = options.eta;
    lig_opts.time_bin = options.time_bin;
    index.emplace(set, lig_opts);
  }

  // Blocks of probe vertices i; boundaries depend only on (n, grain).
  // Each probe tests its candidate partners j > i: the LIG probe's hits,
  // or every later vertex without the index.
  const int threads = options.exec.ResolvedThreads();
  const size_t block = ResolveGrain(options.exec.grain, n, threads,
                                    kPartitionGrainCalibration);
  std::vector<BlockEdges> slots((n + block - 1) / block);
  status_ = ParallelFor(
      &ThreadPool::Default(), n, threads, block,
      [&](size_t b, size_t begin, size_t end) {
        obs::TraceSpan span("gm.shard", b);
        BlockEdges& out = slots[b];
        std::vector<TrajIndex> candidates;
        for (TrajIndex i = static_cast<TrajIndex>(begin); i < end; ++i) {
          if (!feasible_[i]) continue;
          candidates.clear();
          if (index) {
            index->CollectCandidates(i, &candidates);
          } else {
            for (TrajIndex j = i + 1; j < n; ++j) candidates.push_back(j);
          }
          for (TrajIndex j : candidates) {
            if (j <= i || !feasible_[j]) continue;  // each pair once
            ++out.cex_evaluations;
            if (pred.Cex(set.at(i), set.at(j))) out.edges.emplace_back(i, j);
          }
        }
        return Status::OK();
      });
  if (!status_.ok()) return;  // an edgeless graph the caller must not use

  // Deterministic merge: block order, then the usual neighbor sort.
  for (const BlockEdges& out : slots) {
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

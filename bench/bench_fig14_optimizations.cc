// Figure 14: effectiveness of the optimization methods, on synthetic
// datasets of 2,000–6,000 trajectories over the real-dataset transition
// graph (§6.4).
//
//  (a) trajectory-graph (Gm) construction time with vs. without the
//      Length-Indexed Grids index — without indexing the time grows
//      superlinearly; with LIG it is near-linear.
//  (b) whole-repair running time with vs. without minimum-cover-prefix
//      pruning — the paper reports ~30% savings.
//
// Generation thread scaling on one giant chain component, with its
// identity check, is bench_scaling's "Single giant chain component" table.

#include <iostream>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "gen/real_like.h"
#include "repair/repairer.h"
#include "repair/trajectory_graph.h"

using namespace idrepair;
using namespace idrepair::benchutil;

namespace {

RepairOptions Defaults() {
  RepairOptions o;
  o.theta = 4;
  o.eta = 600;
  o.zeta = 4;
  o.lambda = 0.5;
  return o;
}

}  // namespace

int main() {
  BenchReport report("fig14_optimizations");
  const std::vector<size_t> sizes = {2000, 3000, 4000, 5000, 6000};

  report.Title("Fig 14(a): Gm construction time, LIG index on/off");
  report.Header({"trajectories", "records", "with_idx_ms", "no_idx_ms",
               "gm_edges"});
  for (size_t n : sizes) {
    auto ds = MakeScaledRealLikeDataset(n);
    if (!ds.ok()) {
      std::cerr << "generation failed: " << ds.status() << "\n";
      return 1;
    }
    TrajectorySet set = ds->BuildObservedTrajectories();
    PredicateEvaluator pred(ds->graph, 4, 600);
    double with_idx = 0.0;
    double no_idx = 0.0;
    size_t edges = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      RepairOptions o = Defaults();
      o.use_lig = true;
      Stopwatch w1;
      TrajectoryGraph gm1(set, pred, o);
      with_idx += w1.ElapsedSeconds() / kRepetitions;
      o.use_lig = false;
      Stopwatch w2;
      TrajectoryGraph gm2(set, pred, o);
      no_idx += w2.ElapsedSeconds() / kRepetitions;
      edges = gm1.num_edges();
      if (gm2.num_edges() != edges) {
        std::cerr << "index changed Gm!\n";
        return 1;
      }
    }
    report.Row({std::to_string(set.size()),
              std::to_string(set.total_records()), FmtMs(with_idx),
              FmtMs(no_idx), std::to_string(edges)});
  }

  report.Title("Fig 14(b): whole repair time, MCP pruning on/off");
  report.Header({"trajectories", "pruned_ms", "unpruned_ms", "saving",
               "cliques_cut"});
  for (size_t n : sizes) {
    auto ds = MakeScaledRealLikeDataset(n);
    if (!ds.ok()) {
      std::cerr << "generation failed: " << ds.status() << "\n";
      return 1;
    }
    TrajectorySet set = ds->BuildObservedTrajectories();
    double pruned = 0.0;
    double unpruned = 0.0;
    size_t cliques_with = 0;
    size_t cliques_without = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      RepairOptions o = Defaults();
      o.use_mcp_pruning = true;
      IdRepairer with(ds->graph, o);
      auto r1 = with.Repair(set);
      o.use_mcp_pruning = false;
      IdRepairer without(ds->graph, o);
      auto r2 = without.Repair(set);
      if (!r1.ok() || !r2.ok()) {
        std::cerr << "repair failed\n";
        return 1;
      }
      pruned += r1->stats.seconds_total / kRepetitions;
      unpruned += r2->stats.seconds_total / kRepetitions;
      cliques_with = r1->stats.cliques_enumerated;
      cliques_without = r2->stats.cliques_enumerated;
    }
    double saving = unpruned > 0 ? 1.0 - pruned / unpruned : 0.0;
    double cut = cliques_without > 0
                     ? 1.0 - static_cast<double>(cliques_with) /
                                 static_cast<double>(cliques_without)
                     : 0.0;
    report.Row({std::to_string(set.size()), FmtMs(pruned), FmtMs(unpruned),
              Fmt(saving * 100, 1) + "%", Fmt(cut * 100, 1) + "%"});
  }

  return 0;
}

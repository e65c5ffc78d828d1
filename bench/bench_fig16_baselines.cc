// Figure 16: comparison with competing repair approaches on synthetic
// datasets of 2,000–6,000 trajectories (real-dataset transition graph,
// 20% error rate) — recall / precision / f-measure per approach.
//
// Paper shapes: all three approaches have comparable precision; the
// transition-graph approach clearly wins recall (and hence f-measure); the
// neighborhood-constraint adaptation trails the plain ID-similarity
// baseline.

#include <iostream>

#include "baselines/id_similarity_repairer.h"
#include "baselines/neighborhood_repairer.h"
#include "bench_util.h"
#include "eval/metrics.h"
#include "gen/real_like.h"
#include "repair/repairer.h"

using namespace idrepair;
using namespace idrepair::benchutil;

int main() {
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.zeta = 4;
  options.lambda = 0.5;

  PrintTitle("Fig 16: transition graph vs ID similarity vs neighborhood");
  PrintHeader({"trajectories", "approach", "recall", "precision",
               "f-measure"});
  for (size_t n : {2000u, 3000u, 4000u, 5000u, 6000u}) {
    auto ds = MakeScaledRealLikeDataset(n);
    if (!ds.ok()) {
      std::cerr << "generation failed: " << ds.status() << "\n";
      return 1;
    }
    TrajectorySet set = ds->BuildObservedTrajectories();
    auto truth = ComputeFragmentTruth(*ds, set);

    IdRepairer ours(ds->graph, options);
    auto core = ours.Repair(set);
    if (!core.ok()) {
      std::cerr << "repair failed: " << core.status() << "\n";
      return 1;
    }
    auto m1 = EvaluateRewrites(truth, set, core->rewrites);

    IdSimilarityRepairer sim_baseline(ds->graph, options,
                                      /*max_edit_distance=*/3);
    auto sim = sim_baseline.Repair(set);
    if (!sim.ok()) {
      std::cerr << "sim baseline failed: " << sim.status() << "\n";
      return 1;
    }
    auto m2 = EvaluateRewrites(truth, set, sim->rewrites);

    NeighborhoodRepairer nbr_baseline(ds->graph, options);
    auto nbr = nbr_baseline.Repair(set);
    if (!nbr.ok()) {
      std::cerr << "neighborhood baseline failed: " << nbr.status() << "\n";
      return 1;
    }
    auto m3 = EvaluateRewrites(truth, set, nbr->rewrites);

    PrintRow({std::to_string(set.size()), "transition graph",
              Fmt(m1.recall), Fmt(m1.precision), Fmt(m1.f_measure)});
    PrintRow({"", "ID similarity", Fmt(m2.recall), Fmt(m2.precision),
              Fmt(m2.f_measure)});
    PrintRow({"", "neighborhood", Fmt(m3.recall), Fmt(m3.precision),
              Fmt(m3.f_measure)});
  }
  return 0;
}

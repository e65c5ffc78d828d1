// Extension bench (not in the paper): how the core engine scales with
// exec.num_threads on three workload shapes — many small chain components,
// one giant chain component, and a DMIN selection phase — with the output
// re-checked byte for byte against the 1-thread run at every width.
//
//   IDREPAIR_BENCH_JSON_DIR=. build/bench/bench_scaling   # BENCH_scaling.json
//
// scripts/ci.sh reads the giant-component table's gen_ms column for its
// 8-thread generation floor.

#include <algorithm>
#include <functional>
#include <iostream>
#include <thread>

#include "bench_util.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"

using namespace idrepair;
using namespace idrepair::benchutil;

namespace {

/// One sweep row: the thread count, the min-of-N run, its best `metric`
/// seconds, the 1-thread best, and whether rewrites, selection and Ω match
/// the 1-thread run.
using RowFn = std::function<void(int threads, const RepairResult& result,
                                 double best, double base, bool identical)>;

/// Repairs `set` with IdRepairer at 1, 2, 4 and 8 threads, min-of-N on
/// `metric` (the bench_util timing policy), and hands each run to `row`.
/// False on a failed run or on output that moved with the thread count.
bool SweepThreads(const TransitionGraph& graph, const RepairOptions& options,
                  const TrajectorySet& set, double RepairStats::*metric,
                  const RowFn& row) {
  double base = 0.0;
  // RepairResult is move-only; keep only the fields compared below.
  std::unordered_map<TrajIndex, std::string> reference_rewrites;
  std::vector<RepairIndex> reference_selected;
  double reference_omega = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    RepairOptions run_options = options;
    run_options.exec.num_threads = threads;
    IdRepairer engine(graph, run_options);
    bool ok = true;
    Result<RepairResult> keep = Status::Internal("never ran");
    double best = MinOverReps([&](int rep) {
      auto r = engine.Repair(set);
      if (!r.ok()) {
        std::cerr << "repair failed: " << r.status() << "\n";
        ok = false;
        return 0.0;
      }
      double seconds = (*r).stats.*metric;
      if (rep == 0 || !keep.ok() || seconds < keep->stats.*metric) {
        keep = std::move(r);
      }
      return seconds;
    });
    if (!ok) return false;
    if (threads == 1) {
      base = best;
      reference_rewrites = keep->rewrites;
      reference_selected = keep->selected;
      reference_omega = keep->total_effectiveness;
    }
    bool identical = keep->rewrites == reference_rewrites &&
                     keep->selected == reference_selected &&
                     keep->total_effectiveness == reference_omega;
    row(threads, *keep, best, base, identical);
    if (!identical) return false;
  }
  return true;
}

bool Generate(const TransitionGraph& graph, size_t trajectories,
              Timestamp window_seconds, uint64_t seed, TrajectorySet* out) {
  SyntheticConfig config;
  config.num_trajectories = trajectories;
  config.max_path_len = 4;
  config.window_seconds = window_seconds;
  config.seed = seed;
  auto ds = GenerateSyntheticDataset(graph, config);
  if (!ds.ok()) {
    std::cerr << "generation failed: " << ds.status() << "\n";
    return false;
  }
  *out = ds->BuildObservedTrajectories();
  return true;
}

std::string Identical(bool identical) { return identical ? "yes" : "NO (BUG)"; }

}  // namespace

int main() {
  BenchReport report("scaling");
  TransitionGraph graph = MakeRealLikeGraph();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  TrajectorySet set;

  // ------------------------------------------ many-component scaling
  // Two weeks of sparse traffic: mean start gap ~5 min vs η = 10 min, so
  // the input falls into hundreds of small chain components. Gm has no
  // cross-component edges, and clique enumeration walks Gm adjacency, so
  // the whole batch costs about what its components would cost one by one.
  report.Title("Many chain components: thread scaling");
  if (!Generate(graph, 4000, static_cast<Timestamp>(14 * 24) * 3600, 2025,
                &set)) {
    return 1;
  }
  report.Header({"threads", "wall_ms", "cpu_ms", "speedup", "identical"});
  if (!SweepThreads(graph, options, set, &RepairStats::seconds_total,
                    [&](int threads, const RepairResult& r, double best,
                        double base, bool identical) {
                      report.Row({std::to_string(threads), FmtMs(best),
                                  FmtMs(r.stats.cpu_seconds_total),
                                  FmtRatio(base / std::max(best, 1e-9)),
                                  Identical(identical)});
                    })) {
    return 1;
  }
  std::cout << "\n(hardware threads available here: "
            << std::thread::hardware_concurrency()
            << "; output is bit-identical at every width)\n";

  // ------------------------------------ single giant component scaling
  // Dense traffic in one window: the whole batch is ONE chain component.
  // Seed-sharded candidate generation and the sharded Gm build are the
  // parallel surface.
  report.Title("Single giant chain component: intra-component sharding");
  if (!Generate(graph, 1500, 3600, 2026, &set)) return 1;  // gap ~2 s
  report.Header({"threads", "gen_ms", "wall_ms", "speedup", "imbalance",
                 "identical"});
  if (!SweepThreads(graph, options, set, &RepairStats::seconds_total,
                    [&](int threads, const RepairResult& r, double best,
                        double base, bool identical) {
                      report.Row({std::to_string(threads),
                                  FmtMs(r.stats.seconds_generation),
                                  FmtMs(best),
                                  FmtRatio(base / std::max(best, 1e-9)),
                                  Fmt(r.stats.sched_imbalance, 2),
                                  Identical(identical)});
                    })) {
    return 1;
  }

  // ------------------------------------------- selection-phase scaling
  // Phase 2 in isolation: a dense-window workload under DMIN, which
  // counts each repair's Gr degree off the per-trajectory cover lists —
  // by a serial walk over shared member subsets, or by a pass sharded by
  // --grain where that is cheaper at the thread count — and then runs the
  // serial tournament-tree degree pick. No Gr edge is built; gr_edges is
  // the count Gr would hold, and it grows superlinearly with window
  // density (300 trajectories here already mean ~2M conflict edges).
  // sel_ms is Phase 2 wall time only, and most of it is serial.
  report.Title("Selection phase: thread scaling (DMIN, grain 64)");
  if (!Generate(graph, 300, 3600, 2026, &set)) return 1;
  RepairOptions dmin = options;
  dmin.selection = SelectionAlgorithm::kDmin;
  dmin.exec.grain = 64;
  report.Header({"threads", "gr_edges", "sel_ms", "wall_ms", "sel_speedup",
                 "identical"});
  if (!SweepThreads(graph, dmin, set, &RepairStats::seconds_selection,
                    [&](int threads, const RepairResult& r, double best,
                        double base, bool identical) {
                      report.Row({std::to_string(threads),
                                  std::to_string(r.stats.gr_edges),
                                  FmtMs(best),
                                  FmtMs(r.stats.seconds_total),
                                  FmtRatio(base / std::max(best, 1e-9)),
                                  Identical(identical)});
                    })) {
    return 1;
  }
  std::cout << "\n(Phase 2 only: the degree walk and the degree pick are "
               "serial, so little scales, and the output never moves)\n";
  return 0;
}

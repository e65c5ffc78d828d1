// Scaling regression tests on the dense single-component workload — where
// only intra-component parallelism can help — run at 1 and 8 threads.
//
// Two tests with different homes:
//  1. GiantComponentIsByteIdentical (tier-1): the 8-thread run must
//     reproduce the 1-thread candidate set, stats and DMIN selection
//     exactly, per the repo's determinism contract. No clock is read.
//  2. DISABLED_GenerationSpeedupMeetsFloor (scripts/ci.sh `scaling`
//     stage): the 8-thread generation must beat a 2x floor on a workload
//     whose 1-thread generation takes over a second, so scheduler noise is
//     small against the measured region. Disabled in tier-1 because
//     `ctest -j` runs it next to other tests; ci.sh runs it alone with
//     --gtest_also_run_disabled_tests. It skips on fewer than 4 hardware
//     threads, and IDREPAIR_SCALING_MIN_SPEEDUP=F overrides the floor (for
//     a contended shared runner).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/candidates.h"
#include "repair/repair_graph.h"
#include "repair/selectors.h"

namespace idrepair {
namespace {

double SecondsOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Min-of-N: the repetition least disturbed by the machine, same policy as
// bench/bench_util.h.
double MinSecondsOf(int reps, const std::function<void()>& fn) {
  double best = SecondsOf(fn);
  for (int i = 1; i < reps; ++i) best = std::min(best, SecondsOf(fn));
  return best;
}

struct GenerationRun {
  CandidateSet candidates;
  GenerationStats stats;
};

TrajectorySet DenseTrajectories(const TransitionGraph& graph,
                                size_t num_trajectories) {
  SyntheticConfig config;
  config.num_trajectories = num_trajectories;
  config.window_seconds = 3600;
  config.max_path_len = 4;
  config.seed = 2026;
  auto ds = GenerateSyntheticDataset(graph, config);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return ds.ok() ? ds->BuildObservedTrajectories() : TrajectorySet();
}

// One dense chain component: every start-time gap far below η, so all
// parallelism is intra-component.
// Gm is input, not the phase under test: it is built once and shared (its
// edge set depends on θ/η only, never on the thread budget).
class DenseComponent {
 public:
  explicit DenseComponent(size_t num_trajectories)
      : graph_(MakeRealLikeGraph()),
        set_(DenseTrajectories(graph_, num_trajectories)),
        options_(Options()),
        pred_(graph_, options_.theta, options_.eta),
        gm_(set_, pred_, options_),
        is_valid_(set_.size()) {
    for (TrajIndex i = 0; i < set_.size(); ++i) {
      is_valid_[i] = set_.at(i).IsValid(graph_);
    }
  }

  const TrajectorySet& set() const { return set_; }

  void Generate(int threads, GenerationRun* out) const {
    RepairOptions o = options_;
    o.exec.num_threads = threads;  // grain stays `auto`
    auto generated = GenerateCandidates(set_, gm_, pred_, o, similarity_,
                                        is_valid_, &out->stats);
    ASSERT_TRUE(generated.ok()) << generated.status();
    out->candidates = std::move(generated).value();
    ASSERT_TRUE(ComputeEffectiveness(out->candidates, o, set_.size()).ok());
  }

 private:
  static RepairOptions Options() {
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    return options;
  }

  TransitionGraph graph_;
  TrajectorySet set_;
  RepairOptions options_;
  PredicateEvaluator pred_;
  TrajectoryGraph gm_;
  NormalizedEditSimilarity similarity_;
  std::vector<bool> is_valid_;
};

TEST(ScalingTest, GiantComponentIsByteIdentical) {
  DenseComponent dense(320);
  GenerationRun serial, parallel;
  dense.Generate(1, &serial);
  dense.Generate(8, &parallel);
  ASSERT_GT(serial.candidates.size(), 200u)
      << "workload too easy to be a scaling test";

  ASSERT_EQ(parallel.candidates.size(), serial.candidates.size());
  for (size_t i = 0; i < serial.candidates.size(); ++i) {
    ASSERT_EQ(parallel.candidates.members(i), serial.candidates.members(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.invalid_members(i),
              serial.candidates.invalid_members(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.target_id(i),
              serial.candidates.target_id(i))
        << "candidate " << i;
    // Bit-identical floats, never approximate.
    ASSERT_EQ(parallel.candidates.similarity(i),
              serial.candidates.similarity(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.rarity(i), serial.candidates.rarity(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.effectiveness(i),
              serial.candidates.effectiveness(i))
        << "candidate " << i;
  }
  EXPECT_EQ(parallel.stats.jnb_checks, serial.stats.jnb_checks);
  EXPECT_EQ(parallel.stats.joinable_subsets, serial.stats.joinable_subsets);
  EXPECT_EQ(parallel.stats.clique_stats.cliques_emitted,
            serial.stats.clique_stats.cliques_emitted);

  // Selection rides the same instance: Gr build + DMIN at 8 threads must
  // match the 1-thread reference indices exactly.
  const size_t num_trajs = dense.set().size();
  ExecOptions serial_exec;
  serial_exec.num_threads = 1;
  auto gr1 = RepairGraph::Build(serial.candidates, num_trajs, serial_exec);
  ASSERT_TRUE(gr1.ok()) << gr1.status();
  ExecOptions parallel_exec;
  parallel_exec.num_threads = 8;
  auto gr8 = RepairGraph::Build(parallel.candidates, num_trajs, parallel_exec);
  ASSERT_TRUE(gr8.ok()) << gr8.status();
  ASSERT_EQ(gr8->num_edges(), gr1->num_edges());
  DminSelector dmin;
  SelectionContext ctx1, ctx8;
  ctx1.exec = serial_exec;
  ctx8.exec = parallel_exec;
  auto sel1 = dmin.Select(*gr1, serial.candidates, ctx1);
  auto sel8 = dmin.Select(*gr8, parallel.candidates, ctx8);
  ASSERT_TRUE(sel1.ok()) << sel1.status();
  ASSERT_TRUE(sel8.ok()) << sel8.status();
  EXPECT_EQ(*sel8, *sel1);
}

TEST(ScalingTest, DISABLED_GenerationSpeedupMeetsFloor) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "only " << hw << " hardware threads (need >= 4 for a "
                 << "meaningful 8-thread speedup)";
  }
  double floor = 2.0;
  if (const char* env = std::getenv("IDREPAIR_SCALING_MIN_SPEEDUP");
      env != nullptr && *env != '\0') {
    floor = std::strtod(env, nullptr);
  }
  DenseComponent dense(1200);
  GenerationRun serial, parallel;
  const double serial_seconds =
      MinSecondsOf(3, [&] { dense.Generate(1, &serial); });
  const double parallel_seconds =
      MinSecondsOf(3, [&] { dense.Generate(8, &parallel); });
  ASSERT_EQ(parallel.candidates.size(), serial.candidates.size());
  const double speedup = serial_seconds / parallel_seconds;
  GTEST_LOG_(INFO) << "generation 1-thread " << serial_seconds
                   << "s, 8-thread " << parallel_seconds << "s, speedup "
                   << speedup << "x (floor " << floor << "x, hw " << hw
                   << ")";
  EXPECT_GE(speedup, floor)
      << "8-thread generation regressed below the scaling floor; if this "
         "machine is contended, set IDREPAIR_SCALING_MIN_SPEEDUP";
}

}  // namespace
}  // namespace idrepair

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/id_similarity_repairer.h"
#include "baselines/neighborhood_repairer.h"
#include "eval/metrics.h"
#include "gen/real_like.h"
#include "graph/generators.h"
#include "repair/repairer.h"
#include "stream/streaming_repairer.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::MakeTable2Trajectories;
using testutil::RunningExampleOptions;

// ------------------------------------------------------- IdSimilarity

TEST(IdSimilarityRepairerTest, MergesCloseIdsOnRunningExample) {
  TrajectorySet set = MakeTable2Trajectories();
  TransitionGraph graph = MakePaperExampleGraph();
  IdSimilarityRepairer baseline(graph, RunningExampleOptions(),
                                /*max_edit_distance=*/3);
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  // dist(GL03245, GL83248) = 2 and dist(GL21348, GL83248) = 3, so the
  // transitive clustering folds ALL THREE trajectories into one entity —
  // the baseline's characteristic false merge (it never consults the
  // transition graph). Eq. 5 targets the longest trajectory, GL21348.
  ASSERT_EQ(result->rewrites.size(), 2u);
  EXPECT_EQ(result->rewrites.at(1), "GL21348");
  EXPECT_EQ(result->rewrites.at(2), "GL21348");
  EXPECT_EQ(result->repaired.size(), 1u);
}

TEST(IdSimilarityRepairerTest, TightThresholdMergesOnlyTheClosePair) {
  TrajectorySet set = MakeTable2Trajectories();
  TransitionGraph graph = MakePaperExampleGraph();
  IdSimilarityRepairer baseline(graph, RunningExampleOptions(),
                                /*max_edit_distance=*/2);
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  // Only GL03245 <-> GL83248 (distance 2) qualify now.
  ASSERT_EQ(result->rewrites.size(), 1u);
  // Eq. 5 target for {GL03245<C>, GL83248<D,E>} is GL83248 (longer).
  EXPECT_EQ(result->rewrites.at(1), "GL83248");
  EXPECT_EQ(result->repaired.size(), 2u);
}

TEST(IdSimilarityRepairerTest, ThresholdZeroDoesNothing) {
  TrajectorySet set = MakeTable2Trajectories();
  TransitionGraph graph = MakePaperExampleGraph();
  IdSimilarityRepairer baseline(graph, RunningExampleOptions(), 0);
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rewrites.empty());
}

TEST(IdSimilarityRepairerTest, LargeThresholdMergesEverything) {
  TrajectorySet set = MakeTable2Trajectories();
  TransitionGraph graph = MakePaperExampleGraph();
  IdSimilarityRepairer baseline(graph, RunningExampleOptions(), 10);
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->repaired.size(), 1u);
}

TEST(IdSimilarityRepairerTest, IgnoresMovementConstraints) {
  // Two similar IDs at times/locations that can never be one trajectory are
  // merged anyway — the baseline's characteristic false positive.
  std::vector<TrackingRecord> records = {
      {"aaaaaaa", 3, 100},            // D, invalid fragment
      {"aaaaaab", 3, 50000},          // D, hours later
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  TransitionGraph graph = MakePaperExampleGraph();
  IdSimilarityRepairer baseline(graph, RunningExampleOptions(), 3);
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rewrites.size(), 1u);
  EXPECT_EQ(result->repaired.size(), 1u);
}

// ------------------------------------------------------- Neighborhood

TEST(NeighborhoodRepairerTest, AppliesCheapestResolvingRewrite) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  NeighborhoodRepairer baseline(graph, RunningExampleOptions());
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  // GL03245<C> pairs validly with both neighbors; GL83248<D,E> is the
  // cheaper donor (distance 2 vs 4). Settling then blocks the symmetric
  // GL83248 -> GL03245 rewrite, so exactly one label changes.
  ASSERT_EQ(result->rewrites.size(), 1u);
  ASSERT_EQ(result->rewrites.count(1), 1u);
  EXPECT_EQ(result->rewrites.at(1), "GL83248");
}

TEST(NeighborhoodRepairerTest, CannotReassembleThreeFragments) {
  // The paper's critique (1): a trajectory fractured into three pieces
  // needs two coordinated rewrites; isolated binary repair finds no valid
  // pair and gives up. The core pipeline fixes the same input.
  TransitionGraph graph = MakePaperExampleGraph();
  std::vector<TrackingRecord> records = {
      {"realid", 0, 0},    // A
      {"aaaaaa", 1, 60},   // B        (corrupted fragment 1)
      {"realid", 2, 120},  // C
      {"bbbbbb", 3, 180},  // D        (corrupted fragment 2)
      {"realid", 4, 240},  // E
  };
  // No *pair* of fragments merges into a valid path (A,C,E has no A->C
  // edge once only one corrupted piece is added), so binary repair fails.
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options = RunningExampleOptions();
  NeighborhoodRepairer baseline(graph, options);
  auto nbr = baseline.Repair(set);
  ASSERT_TRUE(nbr.ok());
  EXPECT_TRUE(nbr->rewrites.empty());

  IdRepairer core(graph, options);
  auto result = core.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rewrites.size(), 2u);  // both fragments -> realid
}

TEST(NeighborhoodRepairerTest, PerformsIsolatedRewritesOnly) {
  // Every rewrite is a genuine single-label change; the approach never
  // coordinates multiple rewrites toward one entity.
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  NeighborhoodRepairer baseline(graph, RunningExampleOptions());
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  for (const auto& [traj, id] : result->rewrites) {
    EXPECT_NE(set.at(traj).id(), id);
  }
}

TEST(NeighborhoodRepairerTest, ValidTrajectoriesAreNeverRelabeled) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  NeighborhoodRepairer baseline(graph, RunningExampleOptions());
  auto result = baseline.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rewrites.count(0), 0u);  // T1 is valid
}

// --------------------------------------------- Fig 16 dominance property

TEST(BaselineComparisonTest, TransitionGraphApproachWinsOnRecall) {
  auto ds = MakeScaledRealLikeDataset(800, 0.2, /*seed=*/3);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  auto truth = ComputeFragmentTruth(*ds, set);

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  IdRepairer ours(ds->graph, options);
  auto core = ours.Repair(set);
  ASSERT_TRUE(core.ok());
  auto core_metrics = EvaluateRewrites(truth, set, core->rewrites);

  IdSimilarityRepairer sim_baseline(ds->graph, options, 3);
  auto sim_metrics =
      EvaluateRewrites(truth, set, sim_baseline.Repair(set)->rewrites);

  NeighborhoodRepairer nbr_baseline(ds->graph, options);
  auto nbr_metrics =
      EvaluateRewrites(truth, set, nbr_baseline.Repair(set)->rewrites);

  // Fig 16: the transition-graph approach beats both baselines on recall
  // and f-measure.
  EXPECT_GT(core_metrics.recall, sim_metrics.recall);
  EXPECT_GT(core_metrics.recall, nbr_metrics.recall);
  EXPECT_GT(core_metrics.f_measure, sim_metrics.f_measure);
  EXPECT_GT(core_metrics.f_measure, nbr_metrics.f_measure);
}

TEST(BaselineComparisonTest, BaselinesStillRepairSomething) {
  auto ds = MakeScaledRealLikeDataset(500, 0.2, /*seed=*/4);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  auto truth = ComputeFragmentTruth(*ds, set);
  IdSimilarityRepairer sim_baseline(ds->graph, RepairOptions(), 3);
  auto m = EvaluateRewrites(truth, set, sim_baseline.Repair(set)->rewrites);
  EXPECT_GT(m.recall, 0.2);
  EXPECT_GT(m.precision, 0.3);
}

// ------------------------------------------ Unified Repairer interface

TEST(RepairerInterfaceTest, AllEnginesAreSwappablePolymorphically) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();

  std::vector<std::unique_ptr<Repairer>> engines;
  engines.push_back(std::make_unique<IdRepairer>(graph, options));
  engines.push_back(std::make_unique<StreamingRepairer>(graph, options));
  engines.push_back(
      std::make_unique<IdSimilarityRepairer>(graph, options, /*max=*/3));
  engines.push_back(std::make_unique<NeighborhoodRepairer>(graph, options));

  for (const auto& engine : engines) {
    auto result = engine->Repair(set);
    ASSERT_TRUE(result.ok()) << engine->name();
    // Every engine reassembles the full record multiset and reports how
    // many trajectories it saw; candidate-level fields are engine-specific.
    EXPECT_EQ(result->repaired.total_records(), set.total_records())
        << engine->name();
    EXPECT_EQ(result->stats.num_trajectories, set.size()) << engine->name();
    for (const auto& [traj, id] : result->rewrites) {
      EXPECT_NE(set.at(traj).id(), id) << engine->name();
    }
  }
}

// One run record for every engine: the counts RunRecorder stamps describe
// the input, not the engine, so all four report them alike.
TEST(RepairerInterfaceTest, EveryEngineStampsTheSameRunRecord) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  for (int threads : {0, 1, 3}) {
    RepairOptions options = RunningExampleOptions();
    options.exec.num_threads = threads;
    for (std::string_view name : testutil::AllEngineNames()) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      auto engine = testutil::MakeEngineByName(name, graph, options);
      auto result = engine->Repair(set);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->stats.num_trajectories, 3u);
      // GL03245<C> and GL83248<D,E> are the running example's IVTs.
      EXPECT_EQ(result->stats.num_invalid, 2u);
      EXPECT_EQ(result->stats.threads_used, options.exec.ResolvedThreads());
      EXPECT_GT(result->stats.seconds_total, 0.0);
      if (std::string_view(CpuStopwatch::SourceName()) == "process_cputime") {
        EXPECT_GT(result->stats.cpu_seconds_total, 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace idrepair

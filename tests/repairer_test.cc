#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "eval/metrics.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::MakeTable2Trajectories;
using testutil::RunningExampleOptions;

// ------------------------------------------------- running example, E2E

TEST(RepairerTest, RepairsTheRunningExample) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  IdRepairer repairer(graph, RunningExampleOptions());
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());

  // Example 1.4 / Example 4.2: GL03245<C> is rewritten to GL83248 and the
  // records merge into GL83248<C -> D -> E>.
  ASSERT_EQ(result->rewrites.size(), 1u);
  EXPECT_EQ(result->rewrites.at(1), "GL83248");
  ASSERT_EQ(result->repaired.size(), 2u);
  auto idx = result->repaired.BuildIdIndex();
  const Trajectory& repaired = result->repaired.at(idx.at("GL83248"));
  EXPECT_EQ(repaired.LocationSequence(),
            (std::vector<LocationId>{2, 3, 4}));
  EXPECT_TRUE(repaired.IsValid(graph));
  const Trajectory& untouched = result->repaired.at(idx.at("GL21348"));
  EXPECT_EQ(untouched.size(), 4u);
}

TEST(RepairerTest, StatsReflectTheRunningExample) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  IdRepairer repairer(graph, RunningExampleOptions());
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_trajectories, 3u);
  EXPECT_EQ(result->stats.num_invalid, 2u);
  EXPECT_EQ(result->stats.gm_edges, 2u);
  EXPECT_EQ(result->stats.num_candidates, 2u);
  EXPECT_EQ(result->stats.num_selected, 1u);
  EXPECT_GE(result->stats.seconds_total, 0.0);
}

TEST(RepairerTest, RepairedSetPreservesRecordCount) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  IdRepairer repairer(graph, RunningExampleOptions());
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->repaired.total_records(), set.total_records());
}

TEST(RepairerTest, SelectedRepairsAreCompatible) {
  auto ds = MakeRealLikeDataset();
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  IdRepairer repairer(ds->graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  std::vector<bool> used(set.size(), false);
  for (RepairIndex r : result->selected) {
    for (TrajIndex m : result->candidates.members(r)) {
      EXPECT_FALSE(used[m]) << "trajectory " << m << " in two repairs";
      used[m] = true;
    }
  }
}

TEST(RepairerTest, AppliedRepairsProduceValidTrajectories) {
  auto ds = MakeRealLikeDataset();
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  IdRepairer repairer(ds->graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  auto repaired_idx = result->repaired.BuildIdIndex();
  for (RepairIndex r : result->selected) {
    const std::string& target = result->candidates.target_id(r);
    const Trajectory& joined = result->repaired.at(repaired_idx.at(target));
    EXPECT_TRUE(joined.IsValid(ds->graph)) << joined.ToString(ds->graph);
  }
}

TEST(RepairerTest, ImprovesQualityOnRealLikeDataset) {
  auto ds = MakeRealLikeDataset();
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  IdRepairer repairer(ds->graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  auto truth = ComputeFragmentTruth(*ds, set);
  auto metrics = EvaluateRewrites(truth, set, result->rewrites);
  // Fig 10 reports f-measure around 0.85–0.9 at the default parameters; be
  // conservative but demand real repair power.
  EXPECT_GT(metrics.f_measure, 0.6) << "precision " << metrics.precision
                                    << " recall " << metrics.recall;
  double before = TrajectoryAccuracy(truth, set, {});
  double after = TrajectoryAccuracy(truth, set, result->rewrites);
  EXPECT_GT(after, before);
}

// ------------------------------------------------------------ invariants

TEST(RepairerTest, LigOnOffProduceIdenticalResults) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    auto ds = MakeScaledRealLikeDataset(300, 0.2, seed);
    ASSERT_TRUE(ds.ok());
    TrajectorySet set = ds->BuildObservedTrajectories();
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.use_lig = true;
    IdRepairer with(ds->graph, options);
    options.use_lig = false;
    IdRepairer without(ds->graph, options);
    auto a = with.Repair(set);
    auto b = without.Repair(set);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->rewrites, b->rewrites) << "seed " << seed;
    EXPECT_EQ(a->stats.gm_edges, b->stats.gm_edges);
  }
}

TEST(RepairerTest, PruningOnOffProduceIdenticalResults) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    auto ds = MakeScaledRealLikeDataset(300, 0.2, seed);
    ASSERT_TRUE(ds.ok());
    TrajectorySet set = ds->BuildObservedTrajectories();
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.use_mcp_pruning = true;
    IdRepairer with(ds->graph, options);
    options.use_mcp_pruning = false;
    IdRepairer without(ds->graph, options);
    auto a = with.Repair(set);
    auto b = without.Repair(set);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->rewrites, b->rewrites) << "seed " << seed;
    EXPECT_EQ(a->stats.num_candidates, b->stats.num_candidates);
    EXPECT_LE(a->stats.jnb_checks, b->stats.jnb_checks);
  }
}

TEST(RepairerTest, CleanDatasetNeedsNoRepair) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 100;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rewrites.empty());
  EXPECT_EQ(result->stats.num_invalid, 0u);
}

TEST(RepairerTest, RewritesOnlyTargetSelectedMembers) {
  auto ds = MakeRealLikeDataset();
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  IdRepairer repairer(ds->graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  std::set<TrajIndex> selected_members;
  for (RepairIndex r : result->selected) {
    for (TrajIndex m : result->candidates.members(r)) {
      selected_members.insert(m);
    }
  }
  for (const auto& [traj, id] : result->rewrites) {
    EXPECT_TRUE(selected_members.count(traj) > 0);
    EXPECT_NE(set.at(traj).id(), id);
  }
}

// --------------------------------------------------------------- options

TEST(RepairerTest, InvalidOptionsAreRejected) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();
  options.lambda = 0.0;
  EXPECT_FALSE(IdRepairer(graph, options).Repair(set).ok());
  options = RunningExampleOptions();
  options.theta = 0;
  EXPECT_FALSE(IdRepairer(graph, options).Repair(set).ok());
  options = RunningExampleOptions();
  options.zeta = 0;
  EXPECT_FALSE(IdRepairer(graph, options).Repair(set).ok());
  options = RunningExampleOptions();
  options.rarity_base_offset = 0;
  EXPECT_FALSE(IdRepairer(graph, options).Repair(set).ok());
  options = RunningExampleOptions();
  options.time_bin = 0;
  EXPECT_FALSE(IdRepairer(graph, options).Repair(set).ok());
}

// A repair joins at most min(ζ, θ) trajectories, and CandidateSet's ivt
// mask has kMaxRepairMembers bits: the bound is accepted at the width and
// rejected one past it, naming both values.
TEST(RepairerTest, JoinableSubsetBoundIsHeldToTheMaskWidth) {
  RepairOptions options;
  options.zeta = kMaxRepairMembers;
  options.theta = kMaxRepairMembers;
  EXPECT_TRUE(options.Validate().ok()) << options.Validate();
  options.zeta = kMaxRepairMembers + 1;
  EXPECT_TRUE(options.Validate().ok()) << "theta alone bounds the subset";
  options.theta = kMaxRepairMembers + 1;
  Status wide = options.Validate();
  EXPECT_EQ(wide.code(), StatusCode::kInvalidArgument) << wide;
  EXPECT_NE(wide.message().find("zeta=65"), std::string::npos) << wide;
  EXPECT_NE(wide.message().find("theta=65"), std::string::npos) << wide;
  options.zeta = 4;
  EXPECT_TRUE(options.Validate().ok()) << "zeta alone bounds the subset";
}

TEST(RepairerTest, InvalidGraphIsRejected) {
  TransitionGraph graph;  // empty
  TrajectorySet set;
  IdRepairer repairer(graph, RepairOptions{});
  EXPECT_FALSE(repairer.Repair(set).ok());
}

TEST(RepairerTest, EmptySetYieldsEmptyResult) {
  TransitionGraph graph = MakePaperExampleGraph();
  IdRepairer repairer(graph, RunningExampleOptions());
  auto result = repairer.Repair(TrajectorySet{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->candidates.empty());
  EXPECT_TRUE(result->rewrites.empty());
  EXPECT_TRUE(result->repaired.empty());
}

TEST(RepairerTest, CustomSimilarityMetricIsUsed) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();
  JaroWinklerSimilarity jw;
  options.similarity = &jw;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  // The repair decision is the same; only the ω values differ from the
  // edit-similarity run.
  ASSERT_EQ(result->rewrites.size(), 1u);
  EXPECT_EQ(result->rewrites.at(1), "GL83248");
}

TEST(RepairerTest, ThetaOneDisablesAllMerging) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();
  options.theta = 1;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rewrites.empty());
}

// ----------------------------------------------------------- ApplyRewrites

TEST(ApplyRewritesTest, MergesTrajectoriesRewrittenToOneId) {
  TrajectorySet set = MakeTable2Trajectories();
  std::unordered_map<TrajIndex, std::string> rewrites = {{1, "GL83248"}};
  TrajectorySet repaired = ApplyRewrites(set, rewrites);
  EXPECT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired.total_records(), set.total_records());
}

TEST(ApplyRewritesTest, NoRewritesIsIdentity) {
  TrajectorySet set = MakeTable2Trajectories();
  TrajectorySet repaired = ApplyRewrites(set, {});
  ASSERT_EQ(repaired.size(), set.size());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    EXPECT_EQ(repaired.at(i), set.at(i));
  }
}

// ------------------------------------------------------ regroup oracle
//
// Reference implementations that form sets by flattening to records and
// regrouping them on a sorted map of IDs, sharing no code with the
// trajectory constructor that FromRecords and ApplyRewrites go through.

std::vector<Trajectory> ReferenceFromRecords(
    const std::vector<TrackingRecord>& records) {
  std::map<std::string, std::vector<TrajectoryPoint>> by_id;
  for (const auto& r : records) {
    by_id[r.id].push_back(TrajectoryPoint{r.loc, r.ts});
  }
  std::vector<Trajectory> trajs;
  trajs.reserve(by_id.size());
  for (auto& [id, points] : by_id) {
    trajs.emplace_back(id, std::move(points));
  }
  std::sort(trajs.begin(), trajs.end(),
            [](const Trajectory& a, const Trajectory& b) {
              return std::forward_as_tuple(a.start_time(), a.id()) <
                     std::forward_as_tuple(b.start_time(), b.id());
            });
  return trajs;
}

std::vector<Trajectory> ReferenceApplyRewrites(
    const TrajectorySet& set,
    const std::unordered_map<TrajIndex, std::string>& rewrites) {
  std::vector<TrackingRecord> records;
  records.reserve(set.total_records());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    const Trajectory& t = set.at(i);
    auto it = rewrites.find(i);
    const std::string& id = it != rewrites.end() ? it->second : t.id();
    for (const auto& p : t.points()) {
      records.push_back(TrackingRecord{id, p.loc, p.ts});
    }
  }
  return ReferenceFromRecords(records);
}

// Shuffled records over up to 30 IDs whose string order is not their
// numeric order, with timestamps and locations from small ranges so equal
// start times, equal timestamps at different locations and repeated points
// are common. Every tenth seed is empty.
std::vector<TrackingRecord> RandomRecords(Rng& rng, uint64_t seed) {
  std::vector<TrackingRecord> records;
  if (seed % 10 == 0) return records;
  const size_t num_ids = 1 + rng.UniformIndex(30);
  const size_t num_records = 1 + rng.UniformIndex(80);
  for (size_t k = 0; k < num_records; ++k) {
    const size_t id = rng.UniformIndex(num_ids);
    records.push_back({(id % 2 ? "GL" : "") + std::to_string(id * 7 % 31),
                       static_cast<LocationId>(rng.UniformIndex(5)),
                       static_cast<Timestamp>(rng.UniformInt(0, 20))});
  }
  rng.Shuffle(records.begin(), records.end());
  return records;
}

// Many-to-one rewrites, as the baselines produce them: several
// trajectories onto one fresh ID, and others onto the ID of a trajectory
// the rewrites leave untouched.
std::unordered_map<TrajIndex, std::string> RandomRewrites(
    Rng& rng, const TrajectorySet& set) {
  std::unordered_map<TrajIndex, std::string> rewrites;
  if (set.empty()) return rewrites;
  const auto untouched = static_cast<TrajIndex>(rng.UniformIndex(set.size()));
  for (TrajIndex i = 0; i < set.size(); ++i) {
    if (i == untouched) continue;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        break;
      case 1:
        rewrites[i] = "new" + std::to_string(rng.UniformIndex(2));
        break;
      default:
        rewrites[i] = set.at(untouched).id();
        break;
    }
  }
  return rewrites;
}

TEST(RegroupOracleTest, FromRecordsAndApplyRewritesMatchTheRecordRegroup) {
  for (uint64_t seed = 0; seed < 250; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::vector<TrackingRecord> records = RandomRecords(rng, seed);
    const TrajectorySet set = TrajectorySet::FromRecords(records);
    ASSERT_EQ(set.trajectories(), ReferenceFromRecords(records));
    const auto rewrites = RandomRewrites(rng, set);
    ASSERT_EQ(ApplyRewrites(set, rewrites).trajectories(),
              ReferenceApplyRewrites(set, rewrites));
    // The constructor over the same trajectories, split into pieces under
    // their ID, regroups them the same way.
    std::vector<Trajectory> pieces;
    for (const Trajectory& t : set.trajectories()) {
      for (const TrajectoryPoint& p : t.points()) {
        pieces.emplace_back(t.id(), std::vector<TrajectoryPoint>{p});
      }
    }
    rng.Shuffle(pieces.begin(), pieces.end());
    ASSERT_EQ(TrajectorySet(std::move(pieces)).trajectories(),
              set.trajectories());
  }
}

}  // namespace
}  // namespace idrepair

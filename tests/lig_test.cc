#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "lig/length_indexed_grids.h"

namespace idrepair {
namespace {

TrajectorySet MakeSmallSet() {
  // Lengths 1..3, assorted start/end times.
  std::vector<TrackingRecord> records = {
      {"t1", 0, 0},    {"t1", 1, 100},  {"t1", 2, 200},  // len 3, [0,200]
      {"t2", 0, 150},                                    // len 1, [150,150]
      {"t3", 1, 400},  {"t3", 2, 500},                   // len 2, [400,500]
      {"t4", 0, 5000},                                   // len 1, far future
  };
  return TrajectorySet::FromRecords(records);
}

LengthIndexedGrids::Options SmallOptions() {
  LengthIndexedGrids::Options o;
  o.theta = 4;
  o.eta = 600;
  o.time_bin = 60;
  return o;
}

std::set<TrajIndex> Candidates(const LengthIndexedGrids& lig, TrajIndex k) {
  std::vector<TrajIndex> out;
  lig.CollectCandidates(k, &out);
  return {out.begin(), out.end()};
}

TEST(LigTest, IndexesAllEligibleTrajectories) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids lig(set, SmallOptions());
  EXPECT_EQ(lig.num_indexed(), 4u);
}

TEST(LigTest, ExcludesSelf) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids lig(set, SmallOptions());
  for (TrajIndex k = 0; k < set.size(); ++k) {
    EXPECT_EQ(Candidates(lig, k).count(k), 0u);
  }
}

TEST(LigTest, TimeWindowExcludesFarFutureTrajectory) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids lig(set, SmallOptions());
  // t4 starts at 5000, far outside every other trajectory's η-window.
  auto idx = set.BuildIdIndex();
  TrajIndex t1 = idx.at("t1");
  TrajIndex t4 = idx.at("t4");
  EXPECT_EQ(Candidates(lig, t1).count(t4), 0u);
  EXPECT_EQ(Candidates(lig, t4).count(t1), 0u);
}

TEST(LigTest, LengthCriterionFiltersCandidates) {
  TrajectorySet set = MakeSmallSet();
  auto idx = set.BuildIdIndex();
  LengthIndexedGrids::Options o = SmallOptions();
  o.theta = 4;
  LengthIndexedGrids lig(set, o);
  // Probe t1 (len 3): only candidates of length <= 1 qualify.
  auto c = Candidates(lig, idx.at("t1"));
  EXPECT_EQ(c.count(idx.at("t3")), 0u);  // len 2: 3+2 > θ
  EXPECT_EQ(c.count(idx.at("t2")), 1u);  // len 1, inside window
}

TEST(LigTest, ProbeAtThetaHasNoCandidates) {
  TrajectorySet set = MakeSmallSet();
  auto idx = set.BuildIdIndex();
  LengthIndexedGrids::Options o = SmallOptions();
  o.theta = 3;
  LengthIndexedGrids lig(set, o);
  EXPECT_TRUE(Candidates(lig, idx.at("t1")).empty());  // len 3 == θ
}

TEST(LigTest, OverlongSpanTrajectoriesAreNotIndexed) {
  std::vector<TrackingRecord> records = {
      {"slow", 0, 0}, {"slow", 1, 10000},  // span 10000 > η
      {"ok", 0, 100},
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  LengthIndexedGrids lig(set, SmallOptions());
  EXPECT_EQ(lig.num_indexed(), 1u);
}

// The key correctness property (what makes Fig 14(a) a fair comparison):
// the index never loses a pair that the exhaustive method would test
// successfully.
TEST(LigTest, NeverMissesAFeasiblePair) {
  auto ds = MakeScaledRealLikeDataset(300);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  LengthIndexedGrids::Options o;
  o.theta = 4;
  o.eta = 600;
  o.time_bin = 60;
  LengthIndexedGrids lig(set, o);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    auto candidates = Candidates(lig, i);
    for (TrajIndex j = 0; j < set.size(); ++j) {
      if (i == j) continue;
      const Trajectory& a = set.at(i);
      const Trajectory& b = set.at(j);
      // The exact §5.1 criteria.
      bool feasible =
          a.size() + b.size() <= o.theta && b.TimeSpan() <= o.eta &&
          b.start_time() >= a.end_time() - o.eta &&
          b.start_time() <= a.start_time() + o.eta &&
          b.end_time() >= a.end_time() - o.eta &&
          b.end_time() <= a.start_time() + o.eta;
      if (feasible) {
        EXPECT_EQ(candidates.count(j), 1u)
            << "missed pair " << i << "," << j;
      }
    }
  }
}

TEST(LigTest, CandidateCountIsMuchSmallerThanAllPairs) {
  auto ds = MakeScaledRealLikeDataset(2000);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  LengthIndexedGrids::Options o;
  o.theta = 4;
  o.eta = 600;
  o.time_bin = 60;
  LengthIndexedGrids lig(set, o);
  size_t total = 0;
  std::vector<TrajIndex> out;
  for (TrajIndex i = 0; i < set.size(); ++i) {
    out.clear();
    lig.CollectCandidates(i, &out);
    total += out.size();
  }
  size_t all_pairs = set.size() * (set.size() - 1);
  EXPECT_LT(total, all_pairs / 4) << "index prunes too little";
}

TEST(LigTest, EmptyOutputForSingletonSet) {
  std::vector<TrackingRecord> records = {{"only", 0, 10}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  LengthIndexedGrids lig(set, SmallOptions());
  EXPECT_TRUE(Candidates(lig, 0).empty());
}

// ---- Indexability boundaries ----

/// A set that walks the indexability boundaries of SmallOptions (θ=4,
/// η=600, tb=60): lengths exactly at and beyond θ, spans exactly at and
/// beyond η, and a start landing exactly on a time-bin edge.
TrajectorySet MakeBoundarySet() {
  std::vector<TrackingRecord> records = {
      // len 4 == θ: indexed, though no probe can pair with it.
      {"at_theta", 0, 0},
      {"at_theta", 1, 100},
      {"at_theta", 2, 200},
      {"at_theta", 3, 300},
      // len 5 > θ: never indexed.
      {"over_theta", 0, 10},
      {"over_theta", 1, 110},
      {"over_theta", 2, 210},
      {"over_theta", 3, 310},
      {"over_theta", 4, 410},
      // span exactly η: indexed.
      {"at_eta", 0, 20},
      {"at_eta", 1, 620},
      // span η+1: never indexed.
      {"over_eta", 0, 30},
      {"over_eta", 1, 631},
      // start exactly on a bin boundary (600 = 10·tb).
      {"bin_edge", 2, 600},
  };
  return TrajectorySet::FromRecords(records);
}

TEST(LigTest, BoundarySpansIndexAndProbeConsistently) {
  TrajectorySet set = MakeBoundarySet();
  LengthIndexedGrids lig(set, SmallOptions());
  auto idx = set.BuildIdIndex();
  // at_theta, at_eta and bin_edge are indexed; over_theta and over_eta are
  // not.
  EXPECT_EQ(lig.num_indexed(), 3u);
  // A probe at the η boundary still sees the boundary entries: probe with
  // the length-1 "bin_edge", which starts exactly on a bin edge.
  std::set<TrajIndex> got = Candidates(lig, idx.at("bin_edge"));
  EXPECT_EQ(got.count(idx.at("at_eta")), 1u);
  // Indexed at length θ, but a join with any probe would exceed θ records —
  // the grid's length criterion excludes it from every probe's answer.
  EXPECT_EQ(got.count(idx.at("at_theta")), 0u);
  // Unindexed members never appear, and the probe excludes itself.
  EXPECT_EQ(got.count(idx.at("over_theta")), 0u);
  EXPECT_EQ(got.count(idx.at("over_eta")), 0u);
  EXPECT_EQ(got.count(idx.at("bin_edge")), 0u);
}

}  // namespace
}  // namespace idrepair

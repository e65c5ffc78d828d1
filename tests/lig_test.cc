#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

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

// ---- Brute-force oracle ----

/// The grid's answer for probe `k`, computed pair by pair with no index:
/// every other trajectory that the grid would index (non-empty, at most θ
/// records, span at most η) and whose length fits θ − |Tk| and whose start
/// and end bins both lie in the probe's bin window [bin(Tk.end − η),
/// bin(Tk.start + η)], ordered by (length, start bin, end − start bins,
/// index) — the order the index reports.
std::vector<TrajIndex> OracleCandidates(const TrajectorySet& set,
                                        const LengthIndexedGrids::Options& o,
                                        TrajIndex k) {
  Timestamp base = 0;
  bool any = false;
  for (const Trajectory& t : set.trajectories()) {
    if (t.empty()) continue;
    base = any ? std::min(base, t.start_time()) : t.start_time();
    any = true;
  }
  const Timestamp tb = std::max<Timestamp>(1, o.time_bin);
  auto bin = [&](Timestamp ts) { return (ts - base) / tb; };
  const Trajectory& probe = set.at(k);
  if (probe.empty() || probe.size() >= o.theta) return {};
  Timestamp lo = probe.end_time() - o.eta;
  Timestamp hi = probe.start_time() + o.eta;
  if (lo > hi) return {};
  Timestamp lo_bin = lo < base ? 0 : bin(lo);
  Timestamp hi_bin = bin(hi);
  std::vector<std::tuple<size_t, Timestamp, Timestamp, TrajIndex>> hits;
  for (TrajIndex j = 0; j < set.size(); ++j) {
    const Trajectory& t = set.at(j);
    if (j == k || t.empty() || t.size() > o.theta) continue;
    if (t.TimeSpan() > o.eta) continue;
    if (t.size() > o.theta - probe.size()) continue;
    Timestamp sbin = bin(t.start_time());
    Timestamp ebin = bin(t.end_time());
    if (sbin < lo_bin || ebin > hi_bin) continue;
    hits.emplace_back(t.size(), sbin, ebin - sbin, j);
  }
  std::sort(hits.begin(), hits.end());
  std::vector<TrajIndex> out;
  for (const auto& hit : hits) out.push_back(std::get<3>(hit));
  return out;
}

/// A random set over a `timeline`-second span: trajectories of 1..θ+1
/// records and spans up to 1.25·η, clustered around random anchors so the
/// probes' windows overlap, plus length-(θ−1) probes pinned to the first
/// and the last time bin.
TrajectorySet MakeRandomSet(Rng* rng, const LengthIndexedGrids::Options& o,
                            Timestamp timeline) {
  std::vector<TrackingRecord> records;
  auto add = [&](const std::string& id, size_t len, Timestamp start,
                 Timestamp span) {
    for (size_t r = 0; r < len; ++r) {
      Timestamp ts = start;
      if (len > 1) ts += r + 1 == len ? span : rng->UniformInt(0, span);
      records.push_back({id, static_cast<LocationId>(r % 5), ts});
    }
  };
  std::vector<Timestamp> anchors = {0, timeline};
  for (int a = 0; a < 6; ++a) anchors.push_back(rng->UniformInt(0, timeline));
  for (int t = 0; t < 240; ++t) {
    Timestamp anchor = anchors[rng->UniformIndex(anchors.size())];
    Timestamp start = std::clamp<Timestamp>(
        anchor + rng->UniformInt(-2 * o.eta, 2 * o.eta), 0, timeline);
    size_t len = 1 + rng->UniformIndex(o.theta + 1);
    Timestamp span = len == 1 ? 0 : rng->UniformInt(0, o.eta + o.eta / 4);
    std::string id = "r";
    id += std::to_string(t);
    add(id, len, start, span);
  }
  // First-bin and last-bin probes of length θ−1, and a peer for each.
  add("first", o.theta - 1, 0, o.eta / 2);
  add("first_peer", 1, o.eta / 3, 0);
  add("last", o.theta - 1, timeline + o.eta - o.eta / 2, o.eta / 2);
  add("last_peer", 1, timeline + o.eta, 0);
  return TrajectorySet::FromRecords(records);
}

// Every probe's answer equals, as an ordered sequence, a pair-by-pair scan
// of the grid's criteria — for bins of one second to ten minutes, and on
// one-hour and eight-week timelines, where most of the time axis is empty.
TEST(LigTest, ProbeAnswersMatchBruteForceGridScan) {
  constexpr Timestamp kHour = 3600;
  constexpr Timestamp kEightWeeks = 8 * 7 * 24 * kHour;
  struct Arm {
    Timestamp time_bin;
    Timestamp timeline;
  };
  const Arm arms[] = {
      {1, kHour}, {7, kHour}, {60, kHour}, {60, kEightWeeks},
      {600, kEightWeeks},
  };
  uint64_t seed = 1;
  for (const Arm& arm : arms) {
    SCOPED_TRACE("time_bin " + std::to_string(arm.time_bin) + ", timeline " +
                 std::to_string(arm.timeline));
    LengthIndexedGrids::Options o;
    o.theta = 4;
    o.eta = 600;
    o.time_bin = arm.time_bin;
    Rng rng(seed++);
    TrajectorySet set = MakeRandomSet(&rng, o, arm.timeline);
    LengthIndexedGrids lig(set, o);
    size_t nonempty = 0;
    std::vector<TrajIndex> got;
    for (TrajIndex k = 0; k < set.size(); ++k) {
      got.clear();
      lig.CollectCandidates(k, &got);
      ASSERT_EQ(got, OracleCandidates(set, o, k)) << "probe " << set.at(k).id();
      if (!got.empty()) ++nonempty;
    }
    // The probes are not vacuous: the pinned first- and last-bin probes see
    // their peers, and many random probes see someone.
    auto idx = set.BuildIdIndex();
    for (const auto& [probe, peer] :
         {std::pair{"first", "first_peer"}, std::pair{"last", "last_peer"}}) {
      got.clear();
      lig.CollectCandidates(idx.at(probe), &got);
      EXPECT_NE(std::find(got.begin(), got.end(), idx.at(peer)), got.end())
          << probe;
    }
    EXPECT_GT(nonempty, set.size() / 4);
  }
}

}  // namespace
}  // namespace idrepair

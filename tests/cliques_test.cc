#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/cliques.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::MakeTable2Trajectories;
using testutil::RunningExampleOptions;

using Clique = std::vector<TrajIndex>;

std::set<Clique> EnumerateAll(const TrajectorySet& set,
                              const TransitionGraph& graph,
                              RepairOptions options,
                              CliqueEnumerator::Stats* stats = nullptr) {
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  CliqueEnumerator enumerator(set, gm, pred, options);
  std::set<Clique> out;
  auto s = enumerator.Enumerate(
      [&](const Clique& c, const std::vector<MergedPoint>&) { out.insert(c); });
  if (stats != nullptr) *stats = s;
  return out;
}

/// Reference enumeration in the enumerator's emission order, written
/// without Gm adjacency walks: every level, the root included, probes each
/// later feasible vertex against every member. θ and ζ bound it; no MCP
/// pruning.
void ScanCliques(const TrajectorySet& set, const TrajectoryGraph& gm,
                 const RepairOptions& options, Clique& clique, size_t records,
                 TrajIndex from, std::vector<Clique>* out) {
  for (TrajIndex w = from; w < set.size(); ++w) {
    if (!gm.IsFeasible(w) || records + set.at(w).size() > options.theta) {
      continue;
    }
    if (!std::all_of(clique.begin(), clique.end(),
                     [&](TrajIndex m) { return gm.HasEdge(m, w); })) {
      continue;
    }
    clique.push_back(w);
    out->push_back(clique);
    if (clique.size() < options.zeta) {
      ScanCliques(set, gm, options, clique, records + set.at(w).size(),
                  w + 1, out);
    }
    clique.pop_back();
  }
}

TEST(CliqueTest, RunningExampleCliquesWithoutPruning) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;
  // Example 3.3: five cliques {v1},{v2},{v3},{v1,v2},{v2,v3}.
  std::set<Clique> expected = {{0}, {1}, {2}, {0, 1}, {1, 2}};
  EXPECT_EQ(EnumerateAll(set, graph, options), expected);
}

TEST(CliqueTest, McpPruningDropsOnlyNonJoinableCliques) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = true;
  CliqueEnumerator::Stats stats;
  auto got = EnumerateAll(set, graph, options, &stats);
  // Example 5.4 logic: {v3} fails the MCP condition (D is no entrance), so
  // it is pruned; everything else survives.
  std::set<Clique> expected = {{0}, {1}, {0, 1}, {1, 2}};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(stats.pck_pruned, 1u);
}

TEST(CliqueTest, ZetaBoundsCliqueSize) {
  // A clique of 4 mutually compatible single-record trajectories.
  TransitionGraph graph = MakePaperExampleGraph();
  std::vector<TrackingRecord> records = {
      {"w", 0, 0}, {"x", 1, 100}, {"y", 3, 200}, {"z", 4, 300}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;

  options.zeta = 4;
  auto all = EnumerateAll(set, graph, options);
  // 4 singletons + 6 pairs + 4 triples + 1 quad = 15 (Figure 5 with n=4).
  EXPECT_EQ(all.size(), 15u);

  options.zeta = 2;
  auto capped = EnumerateAll(set, graph, options);
  EXPECT_EQ(capped.size(), 10u);  // singletons + pairs only
  for (const auto& c : capped) EXPECT_LE(c.size(), 2u);

  options.zeta = 1;
  auto singles = EnumerateAll(set, graph, options);
  EXPECT_EQ(singles.size(), 4u);
}

TEST(CliqueTest, ThetaBoundsTotalRecords) {
  TransitionGraph graph = MakePaperExampleGraph();
  // Two 2-record trajectories + one 1-record one, all compatible.
  std::vector<TrackingRecord> records = {
      {"w", 0, 0},   {"w", 1, 100},  // A,B
      {"x", 2, 200},                 // C
      {"y", 3, 300}, {"y", 4, 400},  // D,E
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;
  options.theta = 4;  // the {w,x,y} triple holds 5 records: excluded
  auto cliques = EnumerateAll(set, graph, options);
  EXPECT_EQ(cliques.count({0, 1, 2}), 0u);
  EXPECT_EQ(cliques.count({0, 1}), 1u);   // 3 records
  EXPECT_EQ(cliques.count({1, 2}), 1u);   // 3 records
  for (const auto& c : cliques) {
    size_t total = 0;
    for (TrajIndex m : c) total += set.at(m).size();
    EXPECT_LE(total, options.theta);
  }
}

TEST(CliqueTest, MembersAreAscendingAndFormCliques) {
  TransitionGraph graph = MakeRealLikeGraph();
  std::vector<TrackingRecord> records = {
      {"a", 0, 0},   {"a", 1, 100},  // A,B
      {"b", 2, 200},                 // C
      {"c", 3, 300},                 // D
      {"d", 0, 350},                 // A (second wave)
      {"e", 1, 450},                 // B
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.zeta = 4;
  options.use_mcp_pruning = false;
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  CliqueEnumerator enumerator(set, gm, pred, options);
  enumerator.Enumerate([&](const Clique& c,
                           const std::vector<MergedPoint>& merged) {
    EXPECT_EQ(merged.size(), [&] {
      size_t total = 0;
      for (TrajIndex m : c) total += set.at(m).size();
      return total;
    }());
    for (size_t i = 0; i + 1 < merged.size(); ++i) {
      EXPECT_LE(merged[i].ts, merged[i + 1].ts);
    }
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = i + 1; j < c.size(); ++j) {
        EXPECT_TRUE(gm.HasEdge(c[i], c[j]))
            << "not a clique: " << c[i] << "," << c[j];
      }
    }
  });
}

TEST(CliqueTest, EachCliqueEmittedExactlyOnce) {
  TransitionGraph graph = MakeRealLikeGraph();
  std::vector<TrackingRecord> records = {
      {"a", 0, 0},  {"b", 1, 100}, {"c", 2, 200}, {"d", 3, 300}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.zeta = 4;
  options.use_mcp_pruning = false;
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  CliqueEnumerator enumerator(set, gm, pred, options);
  std::vector<Clique> all;
  auto stats = enumerator.Enumerate(
      [&](const Clique& c, const std::vector<MergedPoint>&) {
        all.push_back(c);
      });
  std::set<Clique> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
  EXPECT_EQ(stats.cliques_emitted, all.size());
}

TEST(CliqueTest, InfeasibleTrajectoriesAreSkippedEntirely) {
  TransitionGraph graph = MakePaperExampleGraph();
  std::vector<TrackingRecord> records = {
      {"ok", 0, 0},
      {"bad", 4, 100}, {"bad", 0, 200},  // E -> A unreachable: infeasible
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;
  auto cliques = EnumerateAll(set, graph, options);
  auto idx = set.BuildIdIndex();
  for (const auto& c : cliques) {
    for (TrajIndex m : c) EXPECT_NE(m, idx.at("bad"));
  }
}

TEST(CliqueTest, PruningNeverLosesAJoinableSubset) {
  // Property: the joinable subsets derived from the pruned enumeration are
  // identical to those from the full enumeration (Theorem 5.3 soundness).
  // The last seed spreads its entities over a window far wider than η, so
  // the input falls into many chain components; the unpruned enumeration
  // must then also match the scan reference clique for clique, in order.
  TransitionGraph graph = MakeRealLikeGraph();
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SyntheticConfig config;
    config.num_trajectories = seed == 6 ? 200 : 60;
    config.max_path_len = 4;
    config.seed = seed;
    if (seed == 6) config.window_seconds = 200000;
    auto ds = GenerateSyntheticDataset(graph, config);
    ASSERT_TRUE(ds.ok());
    TrajectorySet set = ds->BuildObservedTrajectories();
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.zeta = 4;
    PredicateEvaluator pred(graph, options.theta, options.eta);

    auto joinable_from = [&](bool prune) {
      RepairOptions o = options;
      o.use_mcp_pruning = prune;
      std::set<Clique> joinable;
      TrajectoryGraph gm(set, pred, o);
      CliqueEnumerator enumerator(set, gm, pred, o);
      enumerator.Enumerate(
          [&](const Clique& c, const std::vector<MergedPoint>& merged) {
            if (pred.JnbMerged(merged)) joinable.insert(c);
          });
      return joinable;
    };

    auto with = joinable_from(true);
    auto without = joinable_from(false);
    EXPECT_EQ(with, without) << "seed " << seed;

    RepairOptions unpruned = options;
    unpruned.use_mcp_pruning = false;
    TrajectoryGraph gm(set, pred, unpruned);
    std::vector<Clique> emitted;
    CliqueEnumerator(set, gm, pred, unpruned)
        .Enumerate([&](const Clique& c, const std::vector<MergedPoint>&) {
          emitted.push_back(c);
        });
    std::vector<Clique> reference;
    Clique scratch;
    ScanCliques(set, gm, unpruned, scratch, 0, 0, &reference);
    EXPECT_EQ(emitted, reference) << "seed " << seed;
  }
}

}  // namespace
}  // namespace idrepair

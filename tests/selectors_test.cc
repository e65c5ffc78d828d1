#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "repair/selectors.h"
#include "selection_oracles.h"

namespace idrepair {
namespace {

// Builds a synthetic candidate set + repair graph from (members, ω) specs.
// Member lists induce the incompatibility edges exactly as in production.
struct Spec {
  std::vector<TrajIndex> members;
  double omega;
};

CandidateSet MakeCandidates(const std::vector<Spec>& specs) {
  CandidateSet out;
  for (const auto& s : specs) {
    // Invalid members mirror the member set — immaterial for selection.
    size_t r = out.Append(s.members, s.members, "", 0.0);
    out.set_scores(r, 0, s.omega);
  }
  return out;
}

// One-shard Build() (threads=1).
RepairGraph BuildGraph(const CandidateSet& candidates, size_t num_trajs) {
  ExecOptions exec;
  exec.num_threads = 1;
  auto built = RepairGraph::Build(candidates, num_trajs, exec);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// Runs a selector with a default context (hardware threads, auto grain).
std::vector<RepairIndex> Pick(const RepairSelector& selector,
                              const RepairGraph& gr,
                              const CandidateSet& candidates) {
  auto selected = selector.Select(gr, candidates, SelectionContext{});
  EXPECT_TRUE(selected.ok()) << selected.status();
  return selected.ok() ? *selected : std::vector<RepairIndex>{};
}

size_t MaxTraj(const std::vector<Spec>& specs) {
  size_t n = 0;
  for (const auto& s : specs) {
    for (TrajIndex m : s.members) n = std::max<size_t>(n, m + 1);
  }
  return n;
}

bool IsIndependent(const RepairGraph& gr,
                   const std::vector<RepairIndex>& selected) {
  for (size_t a = 0; a < selected.size(); ++a) {
    for (size_t b = a + 1; b < selected.size(); ++b) {
      const auto& nbrs = gr.Neighbors(selected[a]);
      if (std::binary_search(nbrs.begin(), nbrs.end(), selected[b])) {
        return false;
      }
    }
  }
  return true;
}

// Exhaustive optimum for cross-checking (specs must stay small).
double BruteForceOptimum(const RepairGraph& gr,
                         const CandidateSet& candidates) {
  size_t n = candidates.size();
  double best = 0.0;
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    std::vector<RepairIndex> sel;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) sel.push_back(static_cast<RepairIndex>(i));
    }
    if (!IsIndependent(gr, sel)) continue;
    best = std::max(best, TotalEffectiveness(candidates, sel));
  }
  return best;
}

// --------------------------------------------------------- RepairGraph

TEST(RepairGraphTest, EdgesFollowSharedTrajectories) {
  // The running example's Gr: R1-R2 share T1, R2-R3 share T2 (Figure 4(b)).
  auto candidates =
      MakeCandidates({{{0}, 0.0}, {{0, 1}, 0.428}, {{1, 2}, 1.029}});
  RepairGraph gr = BuildGraph(candidates, 3);
  EXPECT_EQ(gr.num_vertices(), 3u);
  EXPECT_EQ(gr.num_edges(), 2u);
  EXPECT_EQ(gr.Neighbors(0), (std::vector<RepairIndex>{1}));
  EXPECT_EQ(gr.Neighbors(1), (std::vector<RepairIndex>{0, 2}));
  EXPECT_EQ(gr.Neighbors(2), (std::vector<RepairIndex>{1}));
}

TEST(RepairGraphTest, NoDuplicateEdgesWhenSharingMultipleTrajectories) {
  auto candidates = MakeCandidates({{{0, 1}, 1.0}, {{0, 1}, 1.0}});
  RepairGraph gr = BuildGraph(candidates, 2);
  EXPECT_EQ(gr.num_edges(), 1u);
  EXPECT_EQ(gr.Degree(0), 1u);
}

TEST(RepairGraphTest, EmptyCandidateSet) {
  RepairGraph gr = BuildGraph(CandidateSet(), 5);
  EXPECT_EQ(gr.num_vertices(), 0u);
  EXPECT_EQ(gr.num_edges(), 0u);
}

// ---------------------------------------------------------------- EMAX

TEST(EmaxTest, ReproducesExample42) {
  auto candidates =
      MakeCandidates({{{0}, 0.0}, {{0, 1}, 0.428}, {{1, 2}, 1.029}});
  RepairGraph gr = BuildGraph(candidates, 3);
  EmaxSelector emax;
  // R3 selected; R2 discarded as a neighbor; R1 skipped (ω = 0).
  EXPECT_EQ(Pick(emax, gr, candidates), (std::vector<RepairIndex>{2}));
}

TEST(EmaxTest, PicksGreedyNotOptimal) {
  // A center vertex with weight 3 conflicting with two weight-2 leaves:
  // EMAX takes the center (3), the optimum is the leaves (4).
  auto candidates =
      MakeCandidates({{{0, 1}, 3.0}, {{0}, 2.0}, {{1}, 2.0}});
  RepairGraph gr = BuildGraph(candidates, 2);
  EmaxSelector emax;
  EXPECT_EQ(Pick(emax, gr, candidates), (std::vector<RepairIndex>{0}));
  ExactSelector exact;
  EXPECT_EQ(Pick(exact, gr, candidates), (std::vector<RepairIndex>{1, 2}));
}

TEST(EmaxTest, SelectionIsIndependentSet) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Spec> specs;
    for (int i = 0; i < 12; ++i) {
      std::vector<TrajIndex> members;
      size_t sz = 1 + rng.UniformIndex(3);
      for (size_t j = 0; j < sz; ++j) {
        members.push_back(static_cast<TrajIndex>(rng.UniformIndex(8)));
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      specs.push_back({members, rng.UniformReal(0.1, 2.0)});
    }
    auto candidates = MakeCandidates(specs);
    RepairGraph gr = BuildGraph(candidates, MaxTraj(specs));
    EmaxSelector emax;
    EXPECT_TRUE(IsIndependent(gr, Pick(emax, gr, candidates)));
  }
}

// ----------------------------------------------------------- DMIN / DMAX

TEST(DegreeSelectorsTest, DminPrefersLowDegreeVertices) {
  // Star: center (repair over {0,1,2}) conflicts with three leaves.
  auto candidates = MakeCandidates(
      {{{0, 1, 2}, 1.0}, {{0}, 1.0}, {{1}, 1.0}, {{2}, 1.0}});
  RepairGraph gr = BuildGraph(candidates, 3);
  DminSelector dmin;
  EXPECT_EQ(Pick(dmin, gr, candidates),
            (std::vector<RepairIndex>{1, 2, 3}));
  DmaxSelector dmax;
  EXPECT_EQ(Pick(dmax, gr, candidates), (std::vector<RepairIndex>{0}));
}

TEST(DegreeSelectorsTest, SelectionsAreIndependentSets) {
  Rng rng(67);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Spec> specs;
    for (int i = 0; i < 12; ++i) {
      std::vector<TrajIndex> members;
      size_t sz = 1 + rng.UniformIndex(3);
      for (size_t j = 0; j < sz; ++j) {
        members.push_back(static_cast<TrajIndex>(rng.UniformIndex(6)));
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      specs.push_back({members, rng.UniformReal(0.1, 2.0)});
    }
    auto candidates = MakeCandidates(specs);
    RepairGraph gr = BuildGraph(candidates, MaxTraj(specs));
    DminSelector dmin;
    DmaxSelector dmax;
    EXPECT_TRUE(IsIndependent(gr, Pick(dmin, gr, candidates)));
    EXPECT_TRUE(IsIndependent(gr, Pick(dmax, gr, candidates)));
  }
}

TEST(DegreeSelectorsTest, IsolatedVerticesAllSelected) {
  auto candidates =
      MakeCandidates({{{0}, 1.0}, {{1}, 1.0}, {{2}, 1.0}});
  RepairGraph gr = BuildGraph(candidates, 3);
  DminSelector dmin;
  DmaxSelector dmax;
  EXPECT_EQ(Pick(dmin, gr, candidates).size(), 3u);
  EXPECT_EQ(Pick(dmax, gr, candidates).size(), 3u);
}

// ------------------------------------------------------------------ exact

TEST(ExactSelectorTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(71);
  ExactSelector exact;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Spec> specs;
    size_t n = 4 + rng.UniformIndex(9);  // up to 12 repairs
    for (size_t i = 0; i < n; ++i) {
      std::vector<TrajIndex> members;
      size_t sz = 1 + rng.UniformIndex(3);
      for (size_t j = 0; j < sz; ++j) {
        members.push_back(static_cast<TrajIndex>(rng.UniformIndex(7)));
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      specs.push_back({members, rng.UniformReal(0.01, 2.0)});
    }
    auto candidates = MakeCandidates(specs);
    RepairGraph gr = BuildGraph(candidates, MaxTraj(specs));
    auto selected = Pick(exact, gr, candidates);
    ASSERT_TRUE(IsIndependent(gr, selected));
    double got = TotalEffectiveness(candidates, selected);
    double want = BruteForceOptimum(gr, candidates);
    EXPECT_NEAR(got, want, 1e-9) << "trial " << trial;
  }
}

TEST(ExactSelectorTest, HandlesDisconnectedComponents) {
  auto candidates = MakeCandidates(
      {{{0}, 1.0}, {{0}, 2.0},    // component 1: pick the 2.0
       {{5}, 0.5}, {{5, 6}, 0.4},  // component 2: pick the 0.5
       {{9}, 3.0}});               // isolated
  RepairGraph gr = BuildGraph(candidates, 10);
  ExactSelector exact;
  auto selected = Pick(exact, gr, candidates);
  EXPECT_EQ(selected, (std::vector<RepairIndex>{1, 2, 4}));
}

TEST(ExactSelectorTest, EmptyInput) {
  CandidateSet empty;
  RepairGraph gr = BuildGraph(empty, 0);
  ExactSelector exact;
  EXPECT_TRUE(Pick(exact, gr, empty).empty());
}

// ----------------------------------------------------------------- oracle

TEST(OracleSelectorTest, SelectsExactlyCorrectRepairs) {
  // Trajectories 0,1 belong to entity "aaa" (fragments of one trajectory);
  // trajectory 2 is entity "bbb" on its own.
  std::vector<std::string> truth = {"aaa", "aaa", "bbb"};
  CandidateSet candidates;
  std::vector<TrajIndex> m01 = {0, 1};
  std::vector<TrajIndex> m12 = {1, 2};
  candidates.Append(m01, m01, "aaa", 0.0);  // correct
  candidates.Append(m01, m01, "zzz", 0.0);  // wrong target
  candidates.Append(m12, m12, "aaa", 0.0);  // mixes entities
  RepairGraph gr = BuildGraph(candidates, 3);
  OracleSelector oracle(truth);
  EXPECT_EQ(Pick(oracle, gr, candidates), (std::vector<RepairIndex>{0}));
}

TEST(OracleSelectorTest, RequiresFullFragmentCoverage) {
  // Entity "aaa" has fragments {0, 1, 2}; a repair over {0, 1} with the
  // right target is still not the full true trajectory.
  std::vector<std::string> truth = {"aaa", "aaa", "aaa"};
  CandidateSet candidates;
  std::vector<TrajIndex> m01 = {0, 1};
  std::vector<TrajIndex> m012 = {0, 1, 2};
  candidates.Append(m01, m01, "aaa", 0.0);
  candidates.Append(m012, m012, "aaa", 0.0);
  RepairGraph gr = BuildGraph(candidates, 3);
  OracleSelector oracle(truth);
  EXPECT_EQ(Pick(oracle, gr, candidates), (std::vector<RepairIndex>{1}));
}

// ---------------------------------------------------------------- factory

TEST(MakeSelectorTest, CoversAllAlgorithms) {
  EXPECT_EQ(MakeSelector(SelectionAlgorithm::kEmax)->name(), "EMAX");
  EXPECT_EQ(MakeSelector(SelectionAlgorithm::kDmin)->name(), "DMIN");
  EXPECT_EQ(MakeSelector(SelectionAlgorithm::kDmax)->name(), "DMAX");
  EXPECT_EQ(MakeSelector(SelectionAlgorithm::kExact)->name(), "exact");
}

// A sweep of random instances against the Algorithm 3 oracle, which finds
// conflicts by pairwise member intersection. ω is drawn from a palette that
// forces exact ties, zero, −0.0 next to +0.0 and negative values, so the
// sweep pins the pick order's tie-break (lower index first among equal ω)
// and the skip rule (ω <= 0 never commits, whatever its sign bit). Both
// production entry points run at 1/2/8 threads with grain 1, so the sharded
// sort and merge are exercised on every instance.
TEST(SelectEmaxByCoverTest, MatchesAlgorithm3OracleOnRandomSweep) {
  const double palette[] = {0.5, 0.5, 1.0, 0.0, -0.0, -0.25, 1e-300};
  EmaxSelector emax;
  size_t committed = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(0xE3A0 + seed);
    std::vector<Spec> specs;
    const size_t n = 1 + rng.UniformIndex(80);
    const size_t trajs = 1 + rng.UniformIndex(30);
    for (size_t i = 0; i < n; ++i) {
      std::set<TrajIndex> members;
      const size_t k = 1 + rng.UniformIndex(std::min<size_t>(4, trajs));
      while (members.size() < k) {
        members.insert(static_cast<TrajIndex>(rng.UniformIndex(trajs)));
      }
      double w = rng.Bernoulli(0.5)
                     ? palette[rng.UniformIndex(std::size(palette))]
                     : rng.UniformReal(-1.0, 2.0);
      specs.push_back({{members.begin(), members.end()}, w});
    }
    const CandidateSet candidates = MakeCandidates(specs);
    const size_t num_trajs = MaxTraj(specs);
    const oracle::Selection want = oracle::Emax(candidates);
    committed += want.selected.size();
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      SelectionContext ctx;
      ctx.exec.num_threads = threads;
      ctx.exec.grain = 1;
      auto gr = RepairGraph::Build(candidates, num_trajs, ctx.exec);
      ASSERT_TRUE(gr.ok()) << gr.status();

      std::vector<RepairIndex> order;
      ctx.commit_order = &order;
      auto by_cover = SelectEmaxByCover(candidates, num_trajs, ctx);
      ASSERT_TRUE(by_cover.ok()) << by_cover.status();
      EXPECT_EQ(*by_cover, want.selected);
      EXPECT_EQ(order, want.commit_order);
      EXPECT_EQ(TotalEffectiveness(candidates, *by_cover), want.omega);

      order.clear();
      auto by_selector = emax.Select(*gr, candidates, ctx);
      ASSERT_TRUE(by_selector.ok()) << by_selector.status();
      EXPECT_EQ(*by_selector, want.selected);
      EXPECT_EQ(order, want.commit_order);
      EXPECT_EQ(TotalEffectiveness(candidates, *by_selector), want.omega);
    }
  }
  EXPECT_GT(committed, 300u);  // the sweep is not vacuous
}

TEST(TotalEffectivenessTest, SumsSelectedOmegas) {
  auto candidates = MakeCandidates({{{0}, 1.5}, {{1}, 2.5}, {{2}, 4.0}});
  EXPECT_DOUBLE_EQ(TotalEffectiveness(candidates, {0, 2}), 5.5);
  EXPECT_DOUBLE_EQ(TotalEffectiveness(candidates, {}), 0.0);
}

}  // namespace
}  // namespace idrepair

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/deadline.h"
#include "fault/failpoint.h"
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

// The same with ivt(R) given: a subset of the members, possibly empty.
// Only exact search's bound reads it.
struct IvtSpec {
  std::vector<TrajIndex> members;
  double omega;
  std::vector<TrajIndex> invalid;
};

CandidateSet MakeIvtCandidates(const std::vector<IvtSpec>& specs) {
  CandidateSet out;
  for (const auto& s : specs) {
    size_t r = out.Append(s.members, s.invalid, "", 0.0);
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

// Pairwise compatibility straight from the definition (oracle::Conflict),
// sharing no code with the repair graph.
bool IsIndependent(const CandidateSet& candidates,
                   const std::vector<RepairIndex>& selected) {
  for (size_t a = 0; a < selected.size(); ++a) {
    for (size_t b = a + 1; b < selected.size(); ++b) {
      if (oracle::Conflict(candidates, selected[a], selected[b])) {
        return false;
      }
    }
  }
  return true;
}

// Exhaustive optimum for cross-checking (specs must stay small).
double BruteForceOptimum(const CandidateSet& candidates) {
  size_t n = candidates.size();
  double best = 0.0;
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    std::vector<RepairIndex> sel;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) sel.push_back(static_cast<RepairIndex>(i));
    }
    if (!IsIndependent(candidates, sel)) continue;
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
  EXPECT_EQ(gr.num_trajs(), 3u);
  EXPECT_EQ(gr.num_edges(), 2u);
  EXPECT_EQ(gr.Degree(0), 1u);
  EXPECT_EQ(gr.Degree(1), 2u);
  EXPECT_EQ(gr.Degree(2), 1u);
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
    EXPECT_TRUE(IsIndependent(candidates, Pick(emax, gr, candidates)));
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
    EXPECT_TRUE(IsIndependent(candidates, Pick(dmin, gr, candidates)));
    EXPECT_TRUE(IsIndependent(candidates, Pick(dmax, gr, candidates)));
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
    ASSERT_TRUE(IsIndependent(candidates, selected));
    double got = TotalEffectiveness(candidates, selected);
    double want = BruteForceOptimum(candidates);
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

TEST(ExactSelectorTest, EmptyIvtSplitsOmegaOverAllMembers) {
  // Repair 0 fixes no invalid trajectory (ivt = ∅): its ω bounds through
  // both members. EMAX takes it (3.0); the two singletons beat it (4.0).
  auto candidates = MakeIvtCandidates({
      {{0, 1}, 3.0, {}}, {{0}, 2.0, {0}}, {{1}, 2.0, {1}}});
  RepairGraph gr = BuildGraph(candidates, 2);
  ExactSelector exact;
  EXPECT_EQ(Pick(exact, gr, candidates), (std::vector<RepairIndex>{1, 2}));
  // ...and where the ivt-less repair is the optimum it is found too.
  auto heavy = MakeIvtCandidates({
      {{0, 1}, 5.0, {}}, {{0}, 2.0, {0}}, {{1}, 2.0, {1}}});
  RepairGraph heavy_gr = BuildGraph(heavy, 2);
  EXPECT_EQ(Pick(exact, heavy_gr, heavy), (std::vector<RepairIndex>{0}));
}

TEST(ExactSelectorTest, ReturnsEmaxSelectionWhenEmaxIsOptimal) {
  ExactSelector exact;
  EmaxSelector emax;
  // Equal ω on one trajectory: EMAX takes the lower index, and so does
  // exact. A pair of singletons ties the repair over both trajectories, on
  // either side of it in index order: EMAX's pick (the pair-wide repair,
  // higher ω) stays. Repairs with ω = 0 conflict with nothing, yet neither
  // is taken (Example 4.2).
  for (const auto& specs : std::vector<std::vector<Spec>>{
           {{{0}, 1.0}, {{0}, 1.0}},
           {{{0}, 0.0}, {{1}, 0.0}, {{2, 3}, 1.5}, {{3}, 0.0}},
           {{{0, 1}, 2.0}, {{0}, 1.0}, {{1}, 1.0}},
           {{{0}, 1.0}, {{1}, 1.0}, {{0, 1}, 2.0}},
           {{{0}, 0.5}, {{1}, 0.5}, {{0, 1}, 1.0}, {{5}, 1.0}, {{5}, 1.0}}}) {
    auto candidates = MakeCandidates(specs);
    RepairGraph gr = BuildGraph(candidates, MaxTraj(specs));
    auto want = Pick(emax, gr, candidates);
    EXPECT_EQ(Pick(exact, gr, candidates), want);
    EXPECT_EQ(TotalEffectiveness(candidates, want),
              BruteForceOptimum(candidates));
  }
}

TEST(ExactSelectorTest, OptimumMayLeaveTheBranchTrajectoryUncovered) {
  // Trajectory 0 is covered by the most repairs (three), so the search
  // branches on it; each of them blocks two singletons. The optimum takes
  // all six singletons (7.5) and leaves trajectory 0 alone; taking any
  // repair over 0 caps Ω at 7.0, which is also EMAX's answer. Only the
  // "take none" child reaches the optimum.
  auto candidates = MakeCandidates({{{0, 1, 2}, 2.0},
                                    {{0, 3, 4}, 2.0},
                                    {{0, 5, 6}, 2.0},
                                    {{1}, 1.25},
                                    {{2}, 1.25},
                                    {{3}, 1.25},
                                    {{4}, 1.25},
                                    {{5}, 1.25},
                                    {{6}, 1.25}});
  RepairGraph gr = BuildGraph(candidates, 7);
  EmaxSelector emax;
  EXPECT_EQ(TotalEffectiveness(candidates, Pick(emax, gr, candidates)), 7.0);
  ExactSelector exact;
  EXPECT_EQ(Pick(exact, gr, candidates),
            (std::vector<RepairIndex>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(BruteForceOptimum(candidates), 7.5);
}

// A sweep over small random packings against the exhaustive optimum. ω is
// drawn from dyadic values (so every Ω is exact and ties are real ties)
// plus zero and negative values; ivt(R) is a random subset of the members,
// empty included; members spread over up to ten trajectories, so most
// instances split into several components. Exact must reach the optimum,
// return EMAX's selection whenever EMAX's Ω is optimal, and not depend on
// the thread count its EMAX incumbent sorts with.
TEST(ExactSelectorTest, MatchesBruteForceOnPackingSweep) {
  const double palette[] = {0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0, -0.5};
  ExactSelector exact;
  size_t emax_optimal = 0;
  size_t emax_beaten = 0;
  size_t multi_component = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(0xE5AC7 + seed);
    const size_t n = 1 + rng.UniformIndex(14);
    const size_t trajs = 1 + rng.UniformIndex(10);
    std::vector<IvtSpec> specs;
    for (size_t i = 0; i < n; ++i) {
      std::set<TrajIndex> members;
      const size_t k = 1 + rng.UniformIndex(std::min<size_t>(3, trajs));
      while (members.size() < k) {
        members.insert(static_cast<TrajIndex>(rng.UniformIndex(trajs)));
      }
      IvtSpec spec{{members.begin(), members.end()},
                   palette[rng.UniformIndex(std::size(palette))],
                   {}};
      for (TrajIndex t : spec.members) {
        if (rng.Bernoulli(0.6)) spec.invalid.push_back(t);
      }
      specs.push_back(spec);
    }
    const CandidateSet candidates = MakeIvtCandidates(specs);
    const size_t num_trajs = trajs;
    const oracle::Selection greedy = oracle::Emax(candidates);
    const double optimum = BruteForceOptimum(candidates);
    std::vector<RepairIndex> first;
    for (int threads : {1, 8}) {
      SelectionContext ctx;
      ctx.exec.num_threads = threads;
      ctx.exec.grain = 1;
      auto gr = RepairGraph::Build(candidates, num_trajs, ctx.exec);
      ASSERT_TRUE(gr.ok()) << gr.status();
      auto got = exact.Select(*gr, candidates, ctx);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(IsIndependent(candidates, *got));
      for (RepairIndex r : *got) EXPECT_GT(candidates.effectiveness(r), 0.0);
      EXPECT_EQ(TotalEffectiveness(candidates, *got), optimum);
      if (greedy.omega == optimum) {
        EXPECT_EQ(*got, greedy.selected);
      }
      if (threads == 1) first = *got;
      EXPECT_EQ(*got, first) << "threads=" << threads;
    }
    (greedy.omega == optimum ? emax_optimal : emax_beaten) += 1;
    // Conflict components by pairwise intersection: labels propagate
    // their minimum over every conflicting pair until nothing changes.
    std::vector<size_t> label(n);
    std::iota(label.begin(), label.end(), size_t{0});
    for (bool changed = true; changed;) {
      changed = false;
      for (RepairIndex a = 0; a < n; ++a) {
        for (RepairIndex b = a + 1; b < n; ++b) {
          if (label[a] == label[b] || !oracle::Conflict(candidates, a, b)) {
            continue;
          }
          label[a] = label[b] = std::min(label[a], label[b]);
          changed = true;
        }
      }
    }
    multi_component += std::set<size_t>(label.begin(), label.end()).size() > 1;
  }
  // The sweep is not vacuous: both outcomes and split inputs occur.
  EXPECT_GT(emax_optimal, 50u);
  EXPECT_GT(emax_beaten, 10u);
  EXPECT_GT(multi_component, 50u);
}

// A deadline that expires at exact search's first node returns EMAX's
// selection (the incumbent); one that never fires returns the optimum.
TEST(ExactSelectorTest, ExpiredDeadlineReturnsBestPackingSoFar) {
  // EMAX takes the center (3.0, one commit check); the leaves win (4.0).
  auto candidates =
      MakeCandidates({{{0, 1}, 3.0}, {{0}, 2.0}, {{1}, 2.0}});
  RepairGraph gr = BuildGraph(candidates, 2);
  ExactSelector exact;
  fault::Deadline far = fault::Deadline::FromMillis(3600 * 1000);
  for (uint64_t fire_on_hit : {1, 2, 0}) {
    SCOPED_TRACE("fire_on_hit=" + std::to_string(fire_on_hit));
    if (fire_on_hit > 0) {
      fault::FaultSpec expire;
      expire.fire_on_hit = fire_on_hit;
      ASSERT_TRUE(fault::FailPointRegistry::Global()
                      .Arm(fault::kDeadlineExpireSite, expire)
                      .ok());
    }
    fault::Deadline deadline = far;
    SelectionContext ctx;
    ctx.deadline = &deadline;
    auto got = exact.Select(gr, candidates, ctx);
    fault::FailPointRegistry::Global().DisarmAll();
    ASSERT_TRUE(got.ok()) << got.status();
    // Hit 1 stops EMAX before its commit, hit 2 the search at its root.
    const std::vector<RepairIndex> want[] = {{1, 2}, {}, {0}};
    EXPECT_EQ(*got, want[fire_on_hit]);
    EXPECT_EQ(deadline.Expired(), fire_on_hit > 0);
  }
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

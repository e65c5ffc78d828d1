// Verification suite for the parallel deterministic selection phase: the
// sharded selectors and the sharded repair-graph build must be
// *byte-identical* to the test oracles in selection_oracles.h at every
// thread count — same indices, same order, same Ω — never merely
// "equivalent". The dense
// instance below is a single conflict component, the worst case for
// selection parallelism, and the EMAX commit order on it is pinned as a
// golden so an accidental tie-break or merge-order change fails loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/deadline.h"
#include "fault/failpoint.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"
#include "repair/selectors.h"
#include "selection_oracles.h"

namespace idrepair {
namespace {

const std::vector<int> kThreadCounts = {1, 2, 8};

// Builds a synthetic candidate set from (members, ω) specs; member lists
// induce the incompatibility edges exactly as in production.
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

// One-shard Build(): threads=1 with the default grain; its degrees are
// checked against the oracle's pairwise definition below.
RepairGraph BuildSerial(const CandidateSet& candidates, size_t num_trajs) {
  ExecOptions exec;
  exec.num_threads = 1;
  auto built = RepairGraph::Build(candidates, num_trajs, exec);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// The running example's candidate set (Figure 4(b)): R1-R2 share T1, R2-R3
// share T2.
CandidateSet RunningExampleCandidates() {
  return MakeCandidates({{{0}, 0.0}, {{0, 1}, 0.428}, {{1, 2}, 1.029}});
}

// 300 candidates over 40 heavily shared trajectories: every trajectory is
// covered ~19 times, so Gr is one dense component (asserted below) — the
// case where selection, not generation, dominates and where a wrong shard
// merge would actually change the answer. A slice of the ω range dips below
// zero to keep the EMAX skip rule in play.
constexpr size_t kDenseTrajs = 40;

CandidateSet DenseInstance() {
  Rng rng(20260807);
  CandidateSet out;
  std::vector<TrajIndex> members_vec;
  for (int i = 0; i < 300; ++i) {
    size_t k = rng.UniformIndex(4) + 1;
    std::set<TrajIndex> members;
    while (members.size() < k) {
      members.insert(static_cast<TrajIndex>(rng.UniformIndex(kDenseTrajs)));
    }
    members_vec.assign(members.begin(), members.end());
    size_t r = out.Append(members_vec, members_vec, "", 0.0);
    out.set_scores(r, 0, rng.UniformReal(-0.1, 1.5));
  }
  return out;
}

SelectionContext MakeContext(int threads) {
  SelectionContext ctx;
  ctx.exec.num_threads = threads;
  // Grain 1 forces real sharding even on these small inputs; production
  // defaults would keep them serial and test nothing.
  ctx.exec.grain = 1;
  return ctx;
}

// One conflict component, by pairwise member intersection
// (oracle::Conflict), sharing no code with the repair graph.
bool IsConnected(const CandidateSet& candidates) {
  if (candidates.empty()) return true;
  std::vector<uint8_t> seen(candidates.size(), 0);
  std::vector<RepairIndex> stack = {0};
  seen[0] = 1;
  size_t reached = 1;
  while (!stack.empty()) {
    RepairIndex v = stack.back();
    stack.pop_back();
    for (RepairIndex w : oracle::Neighbors(candidates, v)) {
      if (!seen[w]) {
        seen[w] = 1;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  return reached == candidates.size();
}

// Gr's degrees and edge count from the definition.
std::vector<uint32_t> OracleDegrees(const CandidateSet& candidates) {
  std::vector<uint32_t> degrees(candidates.size());
  for (RepairIndex v = 0; v < candidates.size(); ++v) {
    degrees[v] =
        static_cast<uint32_t>(oracle::Neighbors(candidates, v).size());
  }
  return degrees;
}

// The oracle answer for one of the three greedy selectors.
oracle::Selection OracleFor(const RepairSelector& selector,
                            const CandidateSet& candidates) {
  if (selector.name() == "EMAX") return oracle::Emax(candidates);
  return oracle::DegreeGreedy(candidates, selector.name() == "DMIN");
}

// ------------------------------------------------- sharded graph build

TEST(ParallelRepairGraphTest, BuildMatchesOracleDegreesAcrossThreads) {
  for (int which = 0; which < 2; ++which) {
    CandidateSet candidates =
        which == 0 ? RunningExampleCandidates() : DenseInstance();
    size_t num_trajs = candidates.size() == 3 ? 3 : kDenseTrajs;
    const std::vector<uint32_t> want = OracleDegrees(candidates);
    for (int threads : kThreadCounts) {
      ExecOptions exec;
      exec.num_threads = threads;
      exec.grain = 1;
      auto built = RepairGraph::Build(candidates, num_trajs, exec);
      ASSERT_TRUE(built.ok()) << built.status();
      EXPECT_EQ(built->degrees(), want) << "threads=" << threads;
      EXPECT_EQ(built->num_edges(), oracle::ConflictingPairs(candidates))
          << "threads=" << threads;
      EXPECT_EQ(built->num_trajs(), num_trajs);
    }
  }
}

TEST(ParallelRepairGraphTest, DenseInstanceIsOneComponent) {
  EXPECT_TRUE(IsConnected(DenseInstance()));
}

// ------------------------------------------------- selector byte-identity

TEST(ParallelSelectorsTest, GreedySelectorsMatchOracleAcrossThreads) {
  EmaxSelector emax;
  DminSelector dmin;
  DmaxSelector dmax;
  const std::vector<const RepairSelector*> selectors = {&emax, &dmin, &dmax};
  for (int which = 0; which < 2; ++which) {
    CandidateSet candidates =
        which == 0 ? RunningExampleCandidates() : DenseInstance();
    size_t num_trajs = candidates.size() == 3 ? 3 : kDenseTrajs;
    RepairGraph gr = BuildSerial(candidates, num_trajs);
    for (const RepairSelector* selector : selectors) {
      const oracle::Selection want = OracleFor(*selector, candidates);
      for (int threads : kThreadCounts) {
        SelectionContext ctx = MakeContext(threads);
        std::vector<RepairIndex> commit_order;
        ctx.commit_order = &commit_order;
        auto parallel = selector->Select(gr, candidates, ctx);
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        EXPECT_EQ(*parallel, want.selected)
            << selector->name() << " threads=" << threads;
        EXPECT_EQ(commit_order, want.commit_order)
            << selector->name() << " threads=" << threads;
        EXPECT_EQ(TotalEffectiveness(candidates, *parallel), want.omega)
            << selector->name() << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelSelectorsTest, CoverFastPathMatchesOracleAcrossThreads) {
  for (int which = 0; which < 2; ++which) {
    CandidateSet candidates =
        which == 0 ? RunningExampleCandidates() : DenseInstance();
    size_t num_trajs = candidates.size() == 3 ? 3 : kDenseTrajs;
    const oracle::Selection want = oracle::Emax(candidates);
    for (int threads : kThreadCounts) {
      auto parallel =
          SelectEmaxByCover(candidates, num_trajs, MakeContext(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_EQ(*parallel, want.selected) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------- pinned EMAX golden

// The full EMAX commit (pick) sequence on the dense instance, highest ω
// first. Regenerate only for a *deliberate* algorithm change: any edit to
// the sort order, the merge, or the tie-break shows up here as a diff.
const std::vector<RepairIndex> kDenseEmaxCommitOrder = {
    250, 15,  14,  275, 187, 62,  162, 141, 236, 203, 244, 262,
    56,  85,  111, 18,  80,  88,  30,  282, 293, 254, 133, 173,
};

TEST(ParallelSelectorsTest, EmaxCommitOrderIsPinned) {
  auto candidates = DenseInstance();
  RepairGraph gr = BuildSerial(candidates, kDenseTrajs);
  EmaxSelector emax;
  for (int threads : kThreadCounts) {
    SelectionContext ctx = MakeContext(threads);
    std::vector<RepairIndex> commit_order;
    ctx.commit_order = &commit_order;
    auto selected = emax.Select(gr, candidates, ctx);
    ASSERT_TRUE(selected.ok()) << selected.status();
    EXPECT_EQ(commit_order, kDenseEmaxCommitOrder) << "threads=" << threads;
    // The returned set is the commit sequence, re-sorted ascending.
    std::vector<RepairIndex> sorted = commit_order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(*selected, sorted);
    // Commits are emitted in strictly decreasing (ω, then index) order.
    for (size_t i = 1; i < commit_order.size(); ++i) {
      double prev = candidates.effectiveness(commit_order[i - 1]);
      double cur = candidates.effectiveness(commit_order[i]);
      EXPECT_TRUE(prev > cur ||
                  (prev == cur && commit_order[i - 1] < commit_order[i]));
    }
  }
}

TEST(ParallelSelectorsTest, RunningExampleCommitOrderIsPinned) {
  // Figure 4(b): R3 (ω=1.029) commits first and discards R2; R1 has ω=0 and
  // is never taken (Example 4.2). One commit.
  auto candidates = RunningExampleCandidates();
  RepairGraph gr = BuildSerial(candidates, 3);
  EmaxSelector emax;
  SelectionContext ctx = MakeContext(8);
  std::vector<RepairIndex> commit_order;
  ctx.commit_order = &commit_order;
  auto selected = emax.Select(gr, candidates, ctx);
  ASSERT_TRUE(selected.ok()) << selected.status();
  EXPECT_EQ(commit_order, (std::vector<RepairIndex>{2}));
  EXPECT_EQ(*selected, (std::vector<RepairIndex>{2}));
}

// ------------------------------------------------- randomized stress

// Chain shape: candidate i conflicts with i-1 and i+1 only — many small
// fan-outs, the opposite extreme from the dense component.
CandidateSet ChainInstance() {
  Rng rng(20260808);
  CandidateSet out;
  for (int i = 0; i < 200; ++i) {
    std::vector<TrajIndex> members = {static_cast<TrajIndex>(i),
                                      static_cast<TrajIndex>(i + 1)};
    size_t r = out.Append(members, members, "", 0.0);
    out.set_scores(r, 0, rng.UniformReal(-0.1, 1.5));
  }
  return out;
}

// Clustered shape: 20 clusters of 15 candidates, each cluster sharing one
// hub trajectory — mid-size components with a few heavy hubs, the skewed
// case dynamic claiming exists for.
CandidateSet ClusteredInstance() {
  Rng rng(20260809);
  CandidateSet out;
  for (int c = 0; c < 20; ++c) {
    TrajIndex hub = static_cast<TrajIndex>(c * 6);
    for (int i = 0; i < 15; ++i) {
      std::set<TrajIndex> members = {hub};
      size_t k = rng.UniformIndex(3) + 1;
      while (members.size() < k + 1) {
        members.insert(
            static_cast<TrajIndex>(c * 6 + 1 + rng.UniformIndex(5)));
      }
      std::vector<TrajIndex> members_vec(members.begin(), members.end());
      size_t r = out.Append(members_vec, members_vec, "", 0.0);
      out.set_scores(r, 0, rng.UniformReal(-0.1, 1.5));
    }
  }
  return out;
}

size_t NumTrajsFor(const CandidateSet& candidates) {
  TrajIndex max_traj = 0;
  for (size_t r = 0; r < candidates.size(); ++r) {
    for (TrajIndex m : candidates.members(r)) {
      max_traj = std::max(max_traj, m);
    }
  }
  return static_cast<size_t>(max_traj) + 1;
}

// Property: for EVERY (grain, threads, shape) draw — including `auto` and
// adversarially tiny/huge explicit grains — the sharded Build's degrees
// equal the oracle's, all three greedy selectors match their oracles, and
// the commit count matches the selected count exactly.
TEST(ParallelSelectorsTest, RandomizedGrainsMatchOracleAcrossShapes) {
  EmaxSelector emax;
  DminSelector dmin;
  DmaxSelector dmax;
  const std::vector<const RepairSelector*> selectors = {&emax, &dmin, &dmax};
  const std::vector<CandidateSet> shapes = [] {
    std::vector<CandidateSet> s;
    s.push_back(DenseInstance());
    s.push_back(ChainInstance());
    s.push_back(ClusteredInstance());
    return s;
  }();
  Rng rng(20260810);
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    const CandidateSet& candidates = shapes[shape];
    const size_t num_trajs = NumTrajsFor(candidates);
    const std::vector<uint32_t> degrees = OracleDegrees(candidates);
    std::vector<std::vector<RepairIndex>> reference;
    for (const RepairSelector* selector : selectors) {
      reference.push_back(OracleFor(*selector, candidates).selected);
    }
    for (int round = 0; round < 4; ++round) {
      // Grain 0 is the auto sentinel; the explicit draws cover degenerate
      // (1), mid, and larger-than-input grains.
      size_t grain = round == 0 ? 0 : rng.UniformIndex(2 * candidates.size());
      for (int threads : {1, 2, 4, 8}) {
        ExecOptions exec;
        exec.num_threads = threads;
        exec.grain = grain;
        auto built = RepairGraph::Build(candidates, num_trajs, exec);
        ASSERT_TRUE(built.ok()) << built.status();
        ASSERT_EQ(built->degrees(), degrees)
            << "shape=" << shape << " grain=" << grain
            << " threads=" << threads;
        for (size_t s = 0; s < selectors.size(); ++s) {
          SelectionContext ctx;
          ctx.exec.num_threads = threads;
          ctx.exec.grain = grain;
          std::vector<RepairIndex> commit_order;
          ctx.commit_order = &commit_order;
          auto got = selectors[s]->Select(*built, candidates, ctx);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(*got, reference[s])
              << selectors[s]->name() << " shape=" << shape
              << " grain=" << grain << " threads=" << threads;
          // Conservation: every commit lands in the output, nothing else.
          EXPECT_EQ(commit_order.size(), got->size())
              << selectors[s]->name() << " shape=" << shape
              << " grain=" << grain << " threads=" << threads;
        }
      }
    }
  }
}

// ------------------------------------------------- deadline degradation

// An already-expired deadline stops the commit loop before the first
// commit; a deadline that expires mid-loop leaves a compatible prefix.
// (Chaos coverage of forced expiry through a full engine run lives in
// chaos_test; this pins the selector-level contract.)
TEST(ParallelSelectorsTest, ExpiredDeadlineYieldsEmptyPrefix) {
  auto candidates = DenseInstance();
  RepairGraph gr = BuildSerial(candidates, kDenseTrajs);
  fault::Deadline expired = fault::Deadline::FromMillis(1);
  while (!expired.Expired()) {
  }
  for (int threads : kThreadCounts) {
    SelectionContext ctx = MakeContext(threads);
    ctx.deadline = &expired;
    EmaxSelector emax;
    auto selected = emax.Select(gr, candidates, ctx);
    ASSERT_TRUE(selected.ok()) << selected.status();
    EXPECT_TRUE(selected->empty());
    DminSelector dmin;
    auto dmin_selected = dmin.Select(gr, candidates, ctx);
    ASSERT_TRUE(dmin_selected.ok()) << dmin_selected.status();
    EXPECT_TRUE(dmin_selected->empty());
    auto cover = SelectEmaxByCover(candidates, kDenseTrajs, ctx);
    ASSERT_TRUE(cover.ok()) << cover.status();
    EXPECT_TRUE(cover->empty());
  }
}

// ------------------------------------------------- degree-greedy edge cases

// The DMIN/DMAX production loop picks from a tournament tree padded to a
// power of two; the O(|Vr|^2) rescan in selection_oracles.h shares none of
// that code and is the oracle here. Each shape stresses one way the tree
// could diverge: no or one leaf, the padding boundary (63/64/65), all-tie
// keys, a single hub, independent components, and degree-0 vertices.

// n candidates drawn over `trajs` trajectories with 1-3 members each.
CandidateSet RandomInstance(size_t n, size_t trajs, uint64_t seed) {
  Rng rng(seed);
  std::vector<Spec> specs;
  for (size_t i = 0; i < n; ++i) {
    std::set<TrajIndex> members;
    size_t k = rng.UniformIndex(3) + 1;
    while (members.size() < k) {
      members.insert(static_cast<TrajIndex>(rng.UniformIndex(trajs)));
    }
    specs.push_back({{members.begin(), members.end()}, 1.0});
  }
  return MakeCandidates(specs);
}

// n candidates all covering trajectory 0: Kn, every vertex tied.
CandidateSet CompleteInstance(size_t n) {
  std::vector<Spec> specs;
  for (size_t i = 0; i < n; ++i) {
    specs.push_back({{0, static_cast<TrajIndex>(i + 1)}, 1.0});
  }
  return MakeCandidates(specs);
}

// A hub covering trajectories 0..leaves-1, then one leaf per trajectory.
CandidateSet StarInstance(size_t leaves) {
  std::vector<Spec> specs;
  Spec hub{{}, 1.0};
  for (size_t i = 0; i < leaves; ++i) {
    hub.members.push_back(static_cast<TrajIndex>(i));
  }
  specs.push_back(hub);
  for (size_t i = 0; i < leaves; ++i) {
    specs.push_back({{static_cast<TrajIndex>(i)}, 1.0});
  }
  return MakeCandidates(specs);
}

// Cliques of sizes 1..7 interleaved in index order: clique c shares
// trajectory c, each member also holding a private trajectory.
CandidateSet DisjointCliquesInstance() {
  std::vector<Spec> specs;
  TrajIndex next_private = 100;
  for (size_t round = 0; round < 7; ++round) {
    for (TrajIndex c = 0; c < 7; ++c) {
      if (round <= c) specs.push_back({{c, next_private++}, 1.0});
    }
  }
  return MakeCandidates(specs);
}

// 20 candidates with private trajectories (degree 0) around a triangle.
CandidateSet IsolatedInstance() {
  std::vector<Spec> specs;
  for (TrajIndex i = 0; i < 20; ++i) {
    if (i == 7 || i == 8 || i == 9) {
      specs.push_back({{1000, i}, 1.0});
    } else {
      specs.push_back({{i}, 1.0});
    }
  }
  return MakeCandidates(specs);
}

TEST(DegreeGreedyTest, MatchesRescanReferenceOnEdgeShapes) {
  struct Shape {
    std::string name;
    CandidateSet candidates;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"empty", CandidateSet()});
  shapes.push_back({"single", MakeCandidates({{{0}, 1.0}})});
  for (size_t n : {63, 64, 65}) {
    shapes.push_back({"random" + std::to_string(n),
                      RandomInstance(n, n / 2, 20260900 + n)});
    // A random arm over many seeds and conflict densities, from sparse
    // (members over 2n trajectories) to near-complete (over 3).
    for (size_t trajs : {2 * n, n / 2, size_t{3}}) {
      for (uint64_t seed = 1; seed <= 12; ++seed) {
        const uint64_t draw = 20261000 + 1000 * n + 20 * trajs + seed;
        shapes.push_back({"random" + std::to_string(n) + "/trajs" +
                              std::to_string(trajs) + "/seed" +
                              std::to_string(seed),
                          RandomInstance(n, trajs, draw)});
      }
    }
  }
  shapes.push_back({"complete", CompleteInstance(33)});
  shapes.push_back({"star", StarInstance(40)});
  shapes.push_back({"cliques", DisjointCliquesInstance()});
  shapes.push_back({"isolated", IsolatedInstance()});

  DminSelector dmin;
  DmaxSelector dmax;
  for (const Shape& shape : shapes) {
    RepairGraph gr = BuildSerial(shape.candidates,
                                 shape.candidates.empty()
                                     ? 0
                                     : NumTrajsFor(shape.candidates));
    for (const RepairSelector* selector :
         std::vector<const RepairSelector*>{&dmin, &dmax}) {
      SCOPED_TRACE(shape.name + "/" + std::string(selector->name()));
      const oracle::Selection want = OracleFor(*selector, shape.candidates);
      for (int threads : kThreadCounts) {
        std::vector<RepairIndex> commit_order;
        SelectionContext ctx = MakeContext(threads);
        ctx.commit_order = &commit_order;
        auto got = selector->Select(gr, shape.candidates, ctx);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, want.selected) << "threads=" << threads;
        EXPECT_EQ(commit_order, want.commit_order) << "threads=" << threads;
      }
    }
  }
}

// Pins the shapes' known answers, so the oracle itself is checked too: Kn
// keeps one vertex (the smallest, all degrees tie); DMIN takes every star
// leaf and DMAX the hub; both keep one vertex per clique and every
// isolated vertex.
TEST(DegreeGreedyTest, EdgeShapesHaveKnownAnswers) {
  DminSelector dmin;
  DmaxSelector dmax;
  auto both = [&](const CandidateSet& candidates) {
    RepairGraph gr = BuildSerial(candidates, NumTrajsFor(candidates));
    auto lo = dmin.Select(gr, candidates, MakeContext(1));
    auto hi = dmax.Select(gr, candidates, MakeContext(1));
    if (!lo.ok() || !hi.ok()) {
      ADD_FAILURE() << "selection failed";
      return std::make_pair(std::vector<RepairIndex>(),
                            std::vector<RepairIndex>());
    }
    return std::make_pair(*lo, *hi);
  };
  auto complete = both(CompleteInstance(33));
  EXPECT_EQ(complete.first, std::vector<RepairIndex>{0});
  EXPECT_EQ(complete.second, std::vector<RepairIndex>{0});

  auto star = both(StarInstance(40));
  std::vector<RepairIndex> leaves(40);
  std::iota(leaves.begin(), leaves.end(), RepairIndex{1});
  EXPECT_EQ(star.first, leaves);
  EXPECT_EQ(star.second, std::vector<RepairIndex>{0});

  auto cliques = both(DisjointCliquesInstance());
  EXPECT_EQ(cliques.first.size(), 7u);
  EXPECT_EQ(cliques.second.size(), 7u);

  auto isolated = both(IsolatedInstance());
  EXPECT_EQ(isolated.first.size(), 18u);
  EXPECT_EQ(isolated.second.size(), 18u);
}

// A deadline forced to expire at the (k+1)-th commit probe returns exactly
// the first k commits of the unbounded run, in the same order.
TEST(DegreeGreedyTest, ForcedDeadlineYieldsCommitOrderPrefix) {
  CandidateSet candidates = DenseInstance();
  RepairGraph gr = BuildSerial(candidates, kDenseTrajs);
  DminSelector dmin;
  DmaxSelector dmax;
  fault::Deadline far = fault::Deadline::FromMillis(3600 * 1000);
  for (const RepairSelector* selector :
       std::vector<const RepairSelector*>{&dmin, &dmax}) {
    SCOPED_TRACE(std::string(selector->name()));
    std::vector<RepairIndex> full;
    SelectionContext ctx = MakeContext(1);
    ctx.commit_order = &full;
    ASSERT_TRUE(selector->Select(gr, candidates, ctx).ok());
    ASSERT_GT(full.size(), 3u);
    for (size_t k : {size_t{0}, size_t{1}, size_t{2}, full.size() / 2,
                     full.size() - 1}) {
      fault::FaultSpec expire;
      expire.fire_on_hit = k + 1;
      ASSERT_TRUE(fault::FailPointRegistry::Global()
                      .Arm(fault::kDeadlineExpireSite, expire)
                      .ok());
      fault::Deadline deadline = far;
      std::vector<RepairIndex> prefix;
      ctx.deadline = &deadline;
      ctx.commit_order = &prefix;
      auto got = selector->Select(gr, candidates, ctx);
      fault::FailPointRegistry::Global().DisarmAll();
      ASSERT_TRUE(got.ok()) << got.status();
      std::vector<RepairIndex> expected(full.begin(), full.begin() + k);
      EXPECT_EQ(prefix, expected) << "k=" << k;
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(*got, expected) << "k=" << k;
    }
  }
}

// A commit subtracts one degree per *distinct* removed neighbor. c3 shares
// trajectories 0 and 1 with c2 (a ζ-member candidate), so when DMIN's first
// pick c0 removes c2, c3 must lose one degree, not two: it then ties c1 at
// degree 1 and the smaller index, c1, commits second. Subtracting per shared
// trajectory would drop c3 to 0 and commit it before c1.
TEST(DegreeGreedyTest, NeighborSharingTwoTrajectoriesLosesOneDegree) {
  const CandidateSet candidates = MakeCandidates({{{5}, 1.0},
                                                  {{9}, 1.0},
                                                  {{0, 1, 5, 11}, 1.0},
                                                  {{0, 1, 2}, 1.0},
                                                  {{2, 8}, 1.0},
                                                  {{9, 10}, 1.0}});
  DminSelector dmin;
  DmaxSelector dmax;
  const std::vector<std::pair<const RepairSelector*, std::vector<RepairIndex>>>
      pinned = {{&dmin, {0, 1, 3}}, {&dmax, {2, 1, 4}}};
  RepairGraph gr = BuildSerial(candidates, NumTrajsFor(candidates));
  for (const auto& [selector, want_order] : pinned) {
    SCOPED_TRACE(std::string(selector->name()));
    EXPECT_EQ(OracleFor(*selector, candidates).commit_order, want_order);
    for (int threads : kThreadCounts) {
      std::vector<RepairIndex> commit_order;
      SelectionContext ctx = MakeContext(threads);
      ctx.commit_order = &commit_order;
      auto got = selector->Select(gr, candidates, ctx);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(commit_order, want_order) << "threads=" << threads;
    }
  }
}

// RepairGraph::Build takes the subset walk or the stamp pass by their work
// bounds, and both must give every repair its pairwise conflict count.
// "shared_subsets" (20 repairs on one 4-subset, 100 more on its first
// trajectory) and "overlapping" take the walk at one and two threads and
// recurse to depth 4 and 3; "wide" (40-member windows) puts the walk's
// bound past any stamp pass; at eight threads "shared_subsets" takes the
// stamp pass too.
TEST(ParallelRepairGraphTest, WalkAndStampMatchPairwiseDegrees) {
  std::vector<Spec> shared;
  for (TrajIndex i = 0; i < 20; ++i) {
    shared.push_back({{0, 1, 2, 3, static_cast<TrajIndex>(10 + i)}, 1.0});
  }
  for (TrajIndex i = 0; i < 100; ++i) {
    shared.push_back({{0, static_cast<TrajIndex>(40 + i)}, 1.0});
  }
  std::vector<Spec> wide;
  for (TrajIndex i = 0; i < 30; ++i) {
    Spec window{{}, 1.0};
    for (TrajIndex k = 0; k < 40; ++k) window.members.push_back(i + k);
    wide.push_back(window);
  }
  std::vector<std::pair<std::string, CandidateSet>> shapes;
  shapes.emplace_back("shared_subsets", MakeCandidates(shared));
  shapes.emplace_back("overlapping", RandomInstance(300, 12, 7));
  shapes.emplace_back("wide", MakeCandidates(wide));
  shapes.emplace_back("empty", CandidateSet());
  for (const auto& [name, candidates] : shapes) {
    const size_t num_trajs = NumTrajsFor(candidates);
    const std::vector<uint32_t> want = OracleDegrees(candidates);
    for (int threads : kThreadCounts) {
      for (size_t grain : {kGrainAuto, size_t{1}}) {
        SCOPED_TRACE(name + "/t" + std::to_string(threads) + "/g" +
                     std::to_string(grain));
        ExecOptions exec;
        exec.num_threads = threads;
        exec.grain = grain;
        auto got = RepairGraph::Build(candidates, num_trajs, exec);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->degrees(), want);
        EXPECT_EQ(got->num_edges(), oracle::ConflictingPairs(candidates));
      }
    }
  }
}

// --------------------------------------------- DMIN/DMAX through IdRepairer

// A dense synthetic batch whose candidates include a ζ-member repair and
// pairs that share two trajectories (both asserted below).
struct EngineInput {
  TransitionGraph graph;
  TrajectorySet set;
  RepairOptions options;
};

EngineInput DegreeParityInput() {
  EngineInput in;
  in.graph = MakeGridNetwork(3, 4);
  SyntheticConfig config;
  config.num_trajectories = 100;
  config.record_error_rate = 0.2;
  config.max_path_len = 6;
  config.window_seconds = 3600;
  config.travel_median_lo = 30;
  config.travel_median_hi = 90;
  config.seed = 9002;
  auto ds = GenerateSyntheticDataset(in.graph, config);
  EXPECT_TRUE(ds.ok()) << ds.status();
  if (ds.ok()) in.set = ds->BuildObservedTrajectories();
  in.options.theta = 6;
  in.options.eta = 600;
  return in;
}

size_t SharedTrajectories(const CandidateSet& candidates, RepairIndex a,
                          RepairIndex b) {
  Span<const TrajIndex> x = candidates.members(a);
  Span<const TrajIndex> y = candidates.members(b);
  size_t shared = 0;
  for (TrajIndex t : x) shared += std::count(y.begin(), y.end(), t);
  return shared;
}

// IdRepairer's DMIN/DMAX build Gr (cover lists and degrees) once and commit
// from it. At every thread count and grain: the selection equals the
// oracle's; gr_edges equals the built Gr's edge count and the oracle's
// conflicting pairs; and the call benchmark/src/traced_main.cc makes,
// MakeSelector(...)->Select(gr, ...), returns the engine's selection in
// the oracle's commit order.
TEST(DegreeGreedyParityTest, IdRepairerMatchesOracleAndGraphCall) {
  const EngineInput in = DegreeParityInput();
  for (SelectionAlgorithm algorithm :
       {SelectionAlgorithm::kDmin, SelectionAlgorithm::kDmax}) {
    RepairOptions options = in.options;
    options.selection = algorithm;
    options.exec.num_threads = 1;
    auto reference = IdRepairer(in.graph, options).Repair(in.set);
    ASSERT_TRUE(reference.ok()) << reference.status();
    const CandidateSet& candidates = reference->candidates;
    bool zeta_members = false;
    bool shares_two = false;
    for (RepairIndex a = 0; a < candidates.size(); ++a) {
      zeta_members |= candidates.members(a).size() == options.zeta;
      for (RepairIndex b = a + 1; b < candidates.size() && !shares_two; ++b) {
        shares_two = SharedTrajectories(candidates, a, b) >= 2;
      }
    }
    ASSERT_TRUE(zeta_members) << "no candidate with zeta members";
    ASSERT_TRUE(shares_two) << "no candidate pair shares two trajectories";
    const std::unique_ptr<RepairSelector> selector = MakeSelector(algorithm);
    const oracle::Selection want = OracleFor(*selector, candidates);
    const size_t pairs = oracle::ConflictingPairs(candidates);
    ASSERT_GT(want.selected.size(), 1u);
    for (int threads : kThreadCounts) {
      for (size_t grain : {size_t{1}, kGrainAuto}) {
        SCOPED_TRACE(std::string(selector->name()) + " threads=" +
                     std::to_string(threads) +
                     " grain=" + std::to_string(grain));
        options.exec.num_threads = threads;
        options.exec.grain = grain;
        auto result = IdRepairer(in.graph, options).Repair(in.set);
        ASSERT_TRUE(result.ok()) << result.status();
        ASSERT_EQ(result->candidates.size(), candidates.size());
        EXPECT_EQ(result->selected, want.selected);
        EXPECT_EQ(result->total_effectiveness, want.omega);

        auto gr = RepairGraph::Build(result->candidates, in.set.size(),
                                     options.exec);
        ASSERT_TRUE(gr.ok()) << gr.status();
        EXPECT_EQ(result->stats.gr_edges, gr->num_edges());
        EXPECT_EQ(result->stats.gr_edges, pairs);

        SelectionContext ctx;
        ctx.exec = options.exec;
        std::vector<RepairIndex> commit_order;
        ctx.commit_order = &commit_order;
        auto traced = selector->Select(*gr, result->candidates, ctx);
        ASSERT_TRUE(traced.ok()) << traced.status();
        EXPECT_EQ(*traced, result->selected);
        EXPECT_EQ(commit_order, want.commit_order);
      }
    }
  }
}

}  // namespace
}  // namespace idrepair

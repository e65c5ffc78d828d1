// Verification suite for the parallel deterministic selection phase: the
// context-aware (sharded) selectors and the sharded repair-graph build must
// be *byte-identical* to their serial references at every thread count —
// same indices, same order, same Ω — never merely "equivalent". The dense
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
#include "repair/selectors.h"

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

// Serial-schedule Build(): threads=1 with the default grain runs the
// one-shard reference path, which is the byte-identity baseline below.
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
  ctx.exec.min_selection_grain = 1;
  return ctx;
}

bool IsConnected(const RepairGraph& gr) {
  if (gr.num_vertices() == 0) return true;
  std::vector<uint8_t> seen(gr.num_vertices(), 0);
  std::vector<RepairIndex> stack = {0};
  seen[0] = 1;
  size_t reached = 1;
  while (!stack.empty()) {
    RepairIndex v = stack.back();
    stack.pop_back();
    for (RepairIndex w : gr.Neighbors(v)) {
      if (!seen[w]) {
        seen[w] = 1;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  return reached == gr.num_vertices();
}

// ------------------------------------------------- sharded graph build

TEST(ParallelRepairGraphTest, BuildMatchesSerialScheduleAcrossThreads) {
  for (int which = 0; which < 2; ++which) {
    CandidateSet candidates =
        which == 0 ? RunningExampleCandidates() : DenseInstance();
    size_t num_trajs = candidates.size() == 3 ? 3 : kDenseTrajs;
    RepairGraph serial = BuildSerial(candidates, num_trajs);
    for (int threads : kThreadCounts) {
      ExecOptions exec;
      exec.num_threads = threads;
      exec.min_selection_grain = 1;
      auto built = RepairGraph::Build(candidates, num_trajs, exec);
      ASSERT_TRUE(built.ok()) << built.status();
      ASSERT_EQ(built->num_vertices(), serial.num_vertices());
      EXPECT_EQ(built->num_edges(), serial.num_edges())
          << "threads=" << threads;
      for (RepairIndex v = 0; v < serial.num_vertices(); ++v) {
        EXPECT_EQ(built->Neighbors(v), serial.Neighbors(v))
            << "threads=" << threads << " v=" << v;
      }
    }
  }
}

TEST(ParallelRepairGraphTest, DenseInstanceIsOneComponent) {
  auto candidates = DenseInstance();
  RepairGraph gr = BuildSerial(candidates, kDenseTrajs);
  EXPECT_TRUE(IsConnected(gr));
}

// ------------------------------------------------- selector byte-identity

TEST(ParallelSelectorsTest, GreedySelectorsMatchSerialReferenceAcrossThreads) {
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
      std::vector<RepairIndex> reference = selector->Select(gr, candidates);
      for (int threads : kThreadCounts) {
        auto parallel = selector->Select(gr, candidates,
                                         MakeContext(threads));
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        EXPECT_EQ(*parallel, reference)
            << selector->name() << " threads=" << threads;
        EXPECT_EQ(TotalEffectiveness(candidates, *parallel),
                  TotalEffectiveness(candidates, reference))
            << selector->name() << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelSelectorsTest, CoverFastPathMatchesSerialReferenceAcrossThreads) {
  for (int which = 0; which < 2; ++which) {
    CandidateSet candidates =
        which == 0 ? RunningExampleCandidates() : DenseInstance();
    size_t num_trajs = candidates.size() == 3 ? 3 : kDenseTrajs;
    std::vector<RepairIndex> reference =
        SelectEmaxByCover(candidates, num_trajs);
    for (int threads : kThreadCounts) {
      auto parallel =
          SelectEmaxByCover(candidates, num_trajs, MakeContext(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_EQ(*parallel, reference) << "threads=" << threads;
    }
  }
}

// The cover-mask fast path and the graph-materializing EMAX are two
// implementations of the same algorithm; their outputs must agree.
TEST(ParallelSelectorsTest, CoverFastPathAgreesWithGraphEmax) {
  auto candidates = DenseInstance();
  RepairGraph gr = BuildSerial(candidates, kDenseTrajs);
  EmaxSelector emax;
  EXPECT_EQ(SelectEmaxByCover(candidates, kDenseTrajs),
            emax.Select(gr, candidates));
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
// adversarially tiny/huge explicit grains — the sharded Build and all
// three greedy selectors are byte-identical to the 1-thread serial
// reference, and the commit count matches the selected count exactly.
TEST(ParallelSelectorsTest, RandomizedGrainsMatchSerialAcrossShapes) {
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
    RepairGraph serial = BuildSerial(candidates, num_trajs);
    std::vector<std::vector<RepairIndex>> reference;
    for (const RepairSelector* selector : selectors) {
      reference.push_back(selector->Select(serial, candidates));
    }
    for (int round = 0; round < 4; ++round) {
      // Grain 0 is the auto sentinel; the explicit draws cover degenerate
      // (1), mid, and larger-than-input grains.
      size_t grain = round == 0 ? 0 : rng.UniformIndex(2 * candidates.size());
      for (int threads : {1, 2, 4, 8}) {
        ExecOptions exec;
        exec.num_threads = threads;
        exec.min_selection_grain = grain;
        auto built = RepairGraph::Build(candidates, num_trajs, exec);
        ASSERT_TRUE(built.ok()) << built.status();
        ASSERT_EQ(built->num_edges(), serial.num_edges())
            << "shape=" << shape << " grain=" << grain
            << " threads=" << threads;
        for (RepairIndex v = 0; v < serial.num_vertices(); ++v) {
          ASSERT_EQ(built->Neighbors(v), serial.Neighbors(v))
              << "shape=" << shape << " grain=" << grain
              << " threads=" << threads;
        }
        for (size_t s = 0; s < selectors.size(); ++s) {
          SelectionContext ctx;
          ctx.exec.num_threads = threads;
          ctx.exec.min_selection_grain = grain;
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
// power of two; the O(|Vr|^2) rescan in the 2-arg Select shares none of
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
      std::vector<RepairIndex> reference =
          selector->Select(gr, shape.candidates);
      for (int threads : kThreadCounts) {
        std::vector<RepairIndex> commit_order;
        SelectionContext ctx = MakeContext(threads);
        ctx.commit_order = &commit_order;
        auto got = selector->Select(gr, shape.candidates, ctx);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, reference) << "threads=" << threads;
        std::sort(commit_order.begin(), commit_order.end());
        EXPECT_EQ(commit_order, reference) << "threads=" << threads;
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

}  // namespace
}  // namespace idrepair

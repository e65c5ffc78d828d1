#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/real_like.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "repair/predicates.h"
#include "repair/repairer.h"
#include "test_util.h"
#include "traj/merge.h"

namespace idrepair {
namespace {

using testutil::MakeTable2Trajectories;
using testutil::RunningExampleOptions;

class RunningExampleFixture : public ::testing::Test {
 protected:
  RunningExampleFixture()
      : graph_(MakePaperExampleGraph()),
        set_(MakeTable2Trajectories()),
        pred_(graph_, RunningExampleOptions().theta,
              RunningExampleOptions().eta) {}

  const Trajectory& T1() const { return set_.at(0); }  // GL21348<A B D E>
  const Trajectory& T2() const { return set_.at(1); }  // GL03245<C>
  const Trajectory& T3() const { return set_.at(2); }  // GL83248<D E>

  TransitionGraph graph_;
  TrajectorySet set_;
  PredicateEvaluator pred_;
};

// ------------------------------------------------------- InternallyFeasible

TEST_F(RunningExampleFixture, AllTableTrajectoriesAreInternallyFeasible) {
  EXPECT_TRUE(pred_.InternallyFeasible(T1()));
  EXPECT_TRUE(pred_.InternallyFeasible(T2()));
  EXPECT_TRUE(pred_.InternallyFeasible(T3()));
}

TEST_F(RunningExampleFixture, OverlongTrajectoryIsInfeasible) {
  Trajectory t("x", {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 6}});
  EXPECT_FALSE(pred_.InternallyFeasible(t));  // 6 records > θ=5
}

TEST_F(RunningExampleFixture, OverlongSpanIsInfeasible) {
  Trajectory t("x", {{0, 0}, {1, 5000}});  // span > η=1200
  EXPECT_FALSE(pred_.InternallyFeasible(t));
}

TEST_F(RunningExampleFixture, UnreachableConsecutiveLocationsInfeasible) {
  Trajectory t("x", {{4, 1}, {0, 2}});  // E -> A unreachable
  EXPECT_FALSE(pred_.InternallyFeasible(t));
}

TEST_F(RunningExampleFixture, DuplicateTimestampsInfeasible) {
  Trajectory t("x", {{0, 1}, {1, 1}});
  EXPECT_FALSE(pred_.InternallyFeasible(t));
}

TEST_F(RunningExampleFixture, EmptyTrajectoryInfeasible) {
  EXPECT_FALSE(pred_.InternallyFeasible(Trajectory()));
}

// -------------------------------------------------------------------- cex

TEST_F(RunningExampleFixture, CexMatchesExample31) {
  // Example 3.1: edges (v1,v2) and (v2,v3) only.
  EXPECT_TRUE(pred_.Cex(T1(), T2()));
  EXPECT_TRUE(pred_.Cex(T2(), T3()));
  EXPECT_FALSE(pred_.Cex(T1(), T3()));
}

TEST_F(RunningExampleFixture, CexIsSymmetric) {
  EXPECT_EQ(pred_.Cex(T1(), T2()), pred_.Cex(T2(), T1()));
  EXPECT_EQ(pred_.Cex(T1(), T3()), pred_.Cex(T3(), T1()));
  EXPECT_EQ(pred_.Cex(T2(), T3()), pred_.Cex(T3(), T2()));
}

TEST_F(RunningExampleFixture, CexRejectsLengthBound) {
  PredicateEvaluator tight(graph_, /*theta=*/4, /*eta=*/1200);
  // |T1| + |T2| = 5 > 4.
  EXPECT_FALSE(tight.Cex(T1(), T2()));
  // |T2| + |T3| = 3 <= 4 still fine.
  EXPECT_TRUE(tight.Cex(T2(), T3()));
}

TEST_F(RunningExampleFixture, CexRejectsTimeSpanBound) {
  PredicateEvaluator tight(graph_, /*theta=*/5, /*eta=*/200);
  // T2 (08:17:23) to T3 end (08:21:30) spans 247 s > 200.
  EXPECT_FALSE(tight.Cex(T2(), T3()));
}

TEST_F(RunningExampleFixture, CexRejectsEqualCrossTimestamps) {
  Trajectory a("a", {{2, 100}});
  Trajectory b("b", {{3, 100}});
  EXPECT_FALSE(pred_.Cex(a, b));
}

TEST_F(RunningExampleFixture, CexAllowsGapsFilledByThirdTrajectory) {
  // A@0 followed by D@300: not adjacent, but reachable via B (2 hops).
  Trajectory a("a", {{0, 0}});
  Trajectory b("b", {{3, 300}, {4, 400}});
  EXPECT_TRUE(pred_.Cex(a, b));
}

TEST(CexCycleTest, SameLocationTwiceRequiresACycle) {
  // Acyclic graph: two records at B can never lie on one path.
  TransitionGraph acyclic = MakePaperExampleGraph();
  PredicateEvaluator pred(acyclic, 5, 1000);
  Trajectory a("a", {{1, 100}});
  Trajectory b("b", {{1, 200}});
  EXPECT_FALSE(pred.Cex(a, b));

  // Add a cycle B -> C -> B: now a revisit is possible.
  TransitionGraph cyclic = MakePaperExampleGraph();
  ASSERT_TRUE(cyclic.AddEdge(2, 1).ok());
  PredicateEvaluator pred2(cyclic, 5, 1000);
  EXPECT_TRUE(pred2.Cex(a, b));
}

// -------------------------------------------------------------------- jnb

TEST_F(RunningExampleFixture, JnbMatchesExample33) {
  // Joinable subsets: {T1}, {T1,T2}, {T2,T3} — and not {T2}, {T3}.
  const Trajectory* t1[] = {&T1()};
  const Trajectory* t2[] = {&T2()};
  const Trajectory* t3[] = {&T3()};
  const Trajectory* t12[] = {&T1(), &T2()};
  const Trajectory* t23[] = {&T2(), &T3()};
  EXPECT_TRUE(pred_.Jnb(t1));
  EXPECT_FALSE(pred_.Jnb(t2));
  EXPECT_FALSE(pred_.Jnb(t3));
  EXPECT_TRUE(pred_.Jnb(t12));
  EXPECT_TRUE(pred_.Jnb(t23));
}

TEST_F(RunningExampleFixture, JnbRequiresEdgesNotJustReachability) {
  // A@0 then D@300: reachable but not adjacent, and nothing fills the gap.
  Trajectory a("a", {{0, 0}});
  Trajectory b("b", {{3, 300}, {4, 400}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_TRUE(pred_.Cex(a, b));
  EXPECT_FALSE(pred_.Jnb(group));
}

TEST_F(RunningExampleFixture, JnbRejectsEmptyAndOversized) {
  EXPECT_FALSE(pred_.Jnb({}));
  PredicateEvaluator tight(graph_, /*theta=*/2, /*eta=*/1200);
  const Trajectory* t23[] = {&T2(), &T3()};
  EXPECT_FALSE(tight.Jnb(t23));  // 3 records > θ=2
}

TEST_F(RunningExampleFixture, JnbChecksEntranceAndExit) {
  Trajectory bd("x", {{1, 1}, {3, 2}});  // B -> D: neither endpoint special
  const Trajectory* group[] = {&bd};
  EXPECT_FALSE(pred_.Jnb(group));
}

TEST_F(RunningExampleFixture, JnbMergedVariantAgrees) {
  const Trajectory* t23[] = {&T2(), &T3()};
  auto merged = MergeChronological(t23);
  EXPECT_TRUE(pred_.JnbMerged(merged));
}

TEST_F(RunningExampleFixture, JnbRejectsTimestampTies) {
  Trajectory a("a", {{2, 100}});
  Trajectory b("b", {{3, 100}, {4, 200}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_FALSE(pred_.Jnb(group));
}

// -------------------------------------------------------------------- pck

TEST_F(RunningExampleFixture, PckSingletonRequiresEntranceStart) {
  const Trajectory* t1[] = {&T1()};
  const Trajectory* t2[] = {&T2()};
  const Trajectory* t3[] = {&T3()};
  EXPECT_TRUE(pred_.Pck(t1));   // starts at A
  EXPECT_TRUE(pred_.Pck(t2));   // starts at C
  EXPECT_FALSE(pred_.Pck(t3));  // starts at D — never first in a subset
}

TEST_F(RunningExampleFixture, PckOnRunningExamplePairs) {
  const Trajectory* t12[] = {&T1(), &T2()};
  const Trajectory* t23[] = {&T2(), &T3()};
  EXPECT_TRUE(pred_.Pck(t12));  // MCP = A,B,C — prefix of ABCDE
  EXPECT_TRUE(pred_.Pck(t23));  // MCP = C,D — prefix of CDE
}

TEST_F(RunningExampleFixture, PckRequiresEdgeWithinPrefix) {
  // MCP = A@0, D@10 (both sources covered): A->D is not an edge.
  Trajectory a("a", {{0, 0}, {4, 400}});
  Trajectory b("b", {{3, 10}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_FALSE(pred_.Pck(group));
}

TEST_F(RunningExampleFixture, PckIgnoresViolationsAfterThePrefix) {
  // MCP = A@0, B@10 (covers both); the later D@20,D@400 clash is beyond the
  // prefix and must not affect pck (jnb will catch it later).
  Trajectory a("a", {{0, 0}, {3, 400}});
  Trajectory b("b", {{1, 10}, {3, 20}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_TRUE(pred_.Pck(group));
}

TEST_F(RunningExampleFixture, PckRequiresExitReachableFromPrefixEnd) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId dead = g.AddLocation("dead");
  LocationId exit = g.AddLocation("X");
  ASSERT_TRUE(g.AddEdge(a, dead).ok());
  ASSERT_TRUE(g.AddEdge(a, exit).ok());
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkExit(exit).ok());
  PredicateEvaluator pred(g, 5, 1000);
  // The MCP of a pair extends to the later trajectory's first record, so
  // the dead-end is inside the checked prefix. (For a singleton the MCP is
  // just its first record — the rest is checked as the clique grows.)
  Trajectory t1("t1", {{a, 0}});
  Trajectory t2("t2", {{dead, 10}});
  const Trajectory* group[] = {&t1, &t2};
  EXPECT_FALSE(pred.Pck(group));
  Trajectory single("s", {{a, 0}, {dead, 10}});
  const Trajectory* singleton[] = {&single};
  EXPECT_TRUE(pred.Pck(singleton));  // MCP = first record only
}

TEST_F(RunningExampleFixture, PckRejectsTimestampTiesInPrefix) {
  Trajectory a("a", {{0, 0}});
  Trajectory b("b", {{1, 0}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_FALSE(pred_.Pck(group));
}

// The predicates also behave on a larger planar road network.
TEST(GridPredicatesTest, CexAndJnbOnGridNetwork) {
  TransitionGraph g = MakeGridNetwork(3, 4);
  PredicateEvaluator pred(g, /*theta=*/7, /*eta=*/2000);
  // A west-to-east traversal split into two fragments.
  LocationId x0y0 = *g.FindLocation("x0y0");
  LocationId x0y1 = *g.FindLocation("x0y1");
  LocationId x0y2 = *g.FindLocation("x0y2");
  LocationId x0y3 = *g.FindLocation("x0y3");
  Trajectory front("f", {{x0y0, 0}, {x0y1, 100}});
  Trajectory back("b", {{x0y2, 200}, {x0y3, 300}});
  EXPECT_TRUE(pred.Cex(front, back));
  const Trajectory* pair[] = {&front, &back};
  EXPECT_TRUE(pred.Jnb(pair));
  // Going backwards (east to west) is impossible on this one-way grid.
  Trajectory reversed("r", {{x0y3, 0}, {x0y2, 100}});
  EXPECT_FALSE(pred.InternallyFeasible(reversed));
}

TEST(GridPredicatesTest, CrossRowFragmentsRequireAConnectingPath) {
  TransitionGraph g = MakeGridNetwork(3, 4);
  PredicateEvaluator pred(g, 7, 2000);
  // Row 2 cannot reach row 0 (only downward edges exist).
  Trajectory low("l", {{*g.FindLocation("x2y0"), 0}});
  Trajectory high("h", {{*g.FindLocation("x0y1"), 100}});
  EXPECT_FALSE(pred.Cex(low, high));
  // The reverse temporal order works: row 0 reaches row 2 going down.
  Trajectory high_first("hf", {{*g.FindLocation("x0y0"), 0}});
  Trajectory low_later("ll", {{*g.FindLocation("x2y1"), 300}});
  EXPECT_TRUE(pred.Cex(high_first, low_later));
}

// pck is necessary for jnb: every joinable subset passes pck.
TEST_F(RunningExampleFixture, PckIsNecessaryForJnb) {
  const Trajectory* groups[][2] = {
      {&T1(), &T2()}, {&T2(), &T3()}, {&T1(), &T3()}};
  for (auto& g : groups) {
    std::span<const Trajectory* const> span(g, 2);
    if (pred_.Jnb(span)) {
      EXPECT_TRUE(pred_.Pck(span));
    }
  }
}

// ------------------------------------------------- LazyPredicateEvaluator

uint64_t EvaluatorBuilds() {
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == "idrepair_predicate_evaluator_builds_total") {
      return m.counter_value;
    }
  }
  return 0;
}

void ExpectSameRepair(const RepairResult& got, const RepairResult& want) {
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.rewrites, want.rewrites);
  // Ω compared exactly: the shared evaluator must not perturb a single bit.
  EXPECT_EQ(got.total_effectiveness, want.total_effectiveness);
  EXPECT_EQ(got.repaired.trajectories(), want.repaired.trajectories());
}

// Engines that borrow one holder, racing on its first Get() from four
// threads, repair exactly as an engine with its own evaluator does, and
// the holder builds its evaluator once for all of them.
TEST(LazyPredicateEvaluatorTest, FourThreadsOfBorrowingEnginesMatchFreshOne) {
  auto dataset = MakeScaledRealLikeDataset(300, 0.2, 7);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  const TransitionGraph& graph = dataset->graph;
  const TrajectorySet set = dataset->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;

  auto want = IdRepairer(graph, options).Repair(set);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_FALSE(want->rewrites.empty());  // the comparison has teeth

  obs::SetEnabled(true);
  const uint64_t builds_before = EvaluatorBuilds();
  LazyPredicateEvaluator shared(graph, options.theta, options.eta);
  constexpr int kThreads = 4;
  std::vector<std::optional<Result<RepairResult>>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      IdRepairer engine(shared, options);
      start.arrive_and_wait();
      got[t].emplace(engine.Repair(set));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(EvaluatorBuilds() - builds_before, 1u);

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_TRUE(got[t]->ok()) << got[t]->status();
    ExpectSameRepair(**got[t], *want);
  }
  // Later engines over the same holder reuse the build.
  auto again = IdRepairer(shared, options).Repair(set);
  ASSERT_TRUE(again.ok()) << again.status();
  ExpectSameRepair(*again, *want);
  EXPECT_EQ(EvaluatorBuilds() - builds_before, 1u);
}

TEST(LazyPredicateEvaluatorTest, MismatchedThetaOrEtaIsInvalidArgument) {
  TransitionGraph graph = MakePaperExampleGraph();
  const RepairOptions options = RunningExampleOptions();
  LazyPredicateEvaluator shared(graph, options.theta, options.eta);
  const TrajectorySet set = MakeTable2Trajectories();

  RepairOptions other_theta = options;
  other_theta.theta = options.theta - 1;
  RepairOptions other_eta = options;
  other_eta.eta = options.eta + 1;
  for (const RepairOptions& mismatched : {other_theta, other_eta}) {
    auto result = IdRepairer(shared, mismatched).Repair(set);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
  }
  // The holder is still usable by an engine whose options match it.
  auto ok = IdRepairer(shared, options).Repair(set);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rewrites.size(), 1u);
}

}  // namespace
}  // namespace idrepair

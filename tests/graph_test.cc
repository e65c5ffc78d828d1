#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/paths.h"
#include "graph/reachability.h"
#include "graph/transition_graph.h"

namespace idrepair {
namespace {

// Test-local reference: the hop count of the shortest non-empty walk from
// `s` to every vertex, by plain BFS — so dist[s] is the shortest cycle
// through s — and ReachabilityMatrix::kUnreachable where no walk exists.
std::vector<uint32_t> BfsHops(const TransitionGraph& g, LocationId s) {
  std::vector<uint32_t> dist(g.num_locations(),
                             ReachabilityMatrix::kUnreachable);
  std::vector<LocationId> frontier = {s};
  for (uint32_t depth = 1; !frontier.empty(); ++depth) {
    std::vector<LocationId> next;
    for (LocationId u : frontier) {
      for (LocationId v : g.OutNeighbors(u)) {
        if (dist[v] == ReachabilityMatrix::kUnreachable) {
          dist[v] = depth;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  return dist;
}

// A build bounded at |V| holds every shortest hop count: a shortest walk
// (or cycle) never repeats a vertex, so it has at most |V| edges.
ReachabilityMatrix FullReachability(const TransitionGraph& g) {
  return ReachabilityMatrix::BuildBounded(
      g, static_cast<uint32_t>(g.num_locations()));
}

// --------------------------------------------------------- TransitionGraph

TEST(TransitionGraphTest, AddLocationAssignsDenseIds) {
  TransitionGraph g;
  EXPECT_EQ(g.AddLocation("A"), 0u);
  EXPECT_EQ(g.AddLocation("B"), 1u);
  EXPECT_EQ(g.num_locations(), 2u);
  EXPECT_EQ(g.LocationName(0), "A");
  EXPECT_EQ(g.LocationName(1), "B");
}

TEST(TransitionGraphTest, AddLocationIsIdempotentPerName) {
  TransitionGraph g;
  LocationId a1 = g.AddLocation("A");
  LocationId a2 = g.AddLocation("A");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(g.num_locations(), 1u);
}

TEST(TransitionGraphTest, FindLocation) {
  TransitionGraph g;
  g.AddLocation("X");
  EXPECT_EQ(g.FindLocation("X"), std::optional<LocationId>(0));
  EXPECT_EQ(g.FindLocation("Y"), std::nullopt);
}

TEST(TransitionGraphTest, AddEdgeAndHasEdge) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  EXPECT_FALSE(g.HasEdge(a, b));
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_FALSE(g.HasEdge(b, a));  // directed
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(TransitionGraphTest, AddEdgeIsIdempotent) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutNeighbors(a).size(), 1u);
}

TEST(TransitionGraphTest, AddEdgeRejectsOutOfRangeIds) {
  TransitionGraph g;
  g.AddLocation("A");
  EXPECT_EQ(g.AddEdge(0, 5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(5, 0).code(), StatusCode::kInvalidArgument);
}

TEST(TransitionGraphTest, AddEdgeByNameResolvesOrFails) {
  TransitionGraph g;
  g.AddLocation("A");
  g.AddLocation("B");
  EXPECT_TRUE(g.AddEdge("A", "B").ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_EQ(g.AddEdge("A", "Z").code(), StatusCode::kNotFound);
}

TEST(TransitionGraphTest, EdgesSurviveLaterLocationGrowth) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  LocationId c = g.AddLocation("C");
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_FALSE(g.HasEdge(a, c));
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  EXPECT_TRUE(g.HasEdge(b, c));
}

TEST(TransitionGraphTest, EdgeMatrixIsCompactRowMajor) {
  // Bit (from * n + to) is set iff the edge exists — the layout the
  // snapshot format stores.
  TransitionGraph g = MakePaperExampleGraph();
  ASSERT_TRUE(g.AddEdge(4, 4).ok());  // a self-loop lands on the diagonal
  size_t n = g.num_locations();
  DynamicBitset matrix = g.EdgeMatrix();
  ASSERT_EQ(matrix.size(), n * n);
  for (LocationId u = 0; u < n; ++u) {
    for (LocationId v = 0; v < n; ++v) {
      EXPECT_EQ(matrix.Test(u * n + v), g.HasEdge(u, v)) << u << "->" << v;
    }
  }
}

TEST(TransitionGraphTest, CopiesAreIndependentValues) {
  TransitionGraph original = MakePaperExampleGraph();
  TransitionGraph copy = original;
  LocationId f = copy.AddLocation("F");
  ASSERT_TRUE(copy.AddEdge(4, f).ok());
  ASSERT_TRUE(copy.MarkExit(f).ok());
  EXPECT_EQ(original.num_locations(), 5u);
  EXPECT_EQ(original.num_edges(), 5u);
  EXPECT_EQ(original.exits(), (std::vector<LocationId>{4}));
  EXPECT_TRUE(copy.HasEdge(4, f));

  TransitionGraph moved = std::move(copy);
  EXPECT_EQ(moved.num_locations(), 6u);
  EXPECT_TRUE(moved.HasEdge(4, f));
  EXPECT_EQ(moved.FindLocation("F"), std::optional<LocationId>(f));
}

TEST(TransitionGraphTest, InAndOutNeighbors) {
  TransitionGraph g = MakePaperExampleGraph();
  // B has out-neighbors C and D; D has in-neighbors B and C.
  EXPECT_EQ(g.OutNeighbors(1), (std::vector<LocationId>{2, 3}));
  EXPECT_EQ(g.InNeighbors(3), (std::vector<LocationId>{1, 2}));
}

TEST(TransitionGraphTest, EntrancesAndExits) {
  TransitionGraph g = MakePaperExampleGraph();
  EXPECT_EQ(g.entrances(), (std::vector<LocationId>{0, 2}));
  EXPECT_EQ(g.exits(), (std::vector<LocationId>{4}));
  EXPECT_TRUE(g.IsEntrance(0));
  EXPECT_TRUE(g.IsEntrance(2));
  EXPECT_FALSE(g.IsEntrance(1));
  EXPECT_TRUE(g.IsExit(4));
  EXPECT_FALSE(g.IsExit(3));
}

TEST(TransitionGraphTest, MarkEntranceIsIdempotent) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  EXPECT_EQ(g.entrances().size(), 1u);
  EXPECT_EQ(g.MarkEntrance(9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.MarkExit(9).code(), StatusCode::kInvalidArgument);
}

TEST(TransitionGraphTest, ValidateRequiresEntranceAndExit) {
  TransitionGraph g;
  EXPECT_FALSE(g.Validate().ok());  // empty
  LocationId a = g.AddLocation("A");
  EXPECT_FALSE(g.Validate().ok());  // no entrance
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  EXPECT_FALSE(g.Validate().ok());  // no exit
  ASSERT_TRUE(g.MarkExit(a).ok());
  EXPECT_TRUE(g.Validate().ok());
}

// Valid paths on the Figure 1(b) graph: A=0, B=1, C=2, D=3, E=4.
TEST(TransitionGraphTest, IsValidPathAcceptsPaperPaths) {
  TransitionGraph g = MakePaperExampleGraph();
  std::vector<LocationId> abde = {0, 1, 3, 4};
  std::vector<LocationId> abcde = {0, 1, 2, 3, 4};
  std::vector<LocationId> cde = {2, 3, 4};
  EXPECT_TRUE(g.IsValidPath(abde));
  EXPECT_TRUE(g.IsValidPath(abcde));
  EXPECT_TRUE(g.IsValidPath(cde));
}

TEST(TransitionGraphTest, IsValidPathRejectsViolations) {
  TransitionGraph g = MakePaperExampleGraph();
  std::vector<LocationId> starts_mid = {1, 3, 4};     // B not an entrance
  std::vector<LocationId> ends_mid = {0, 1, 3};       // D not an exit
  std::vector<LocationId> skips_edge = {0, 3, 4};     // no A->D edge
  std::vector<LocationId> single_entrance = {2};      // C entrance, not exit
  std::vector<LocationId> empty;
  EXPECT_FALSE(g.IsValidPath(starts_mid));
  EXPECT_FALSE(g.IsValidPath(ends_mid));
  EXPECT_FALSE(g.IsValidPath(skips_edge));
  EXPECT_FALSE(g.IsValidPath(single_entrance));
  EXPECT_FALSE(g.IsValidPath(empty));
}

// -------------------------------------------------------------- HopsToExit

TEST(HopsToExitTest, ShortestHopsOnPaperGraph) {
  // A=0, B=1, C=2, D=3, E=4; E is the only exit.
  TransitionGraph g = MakePaperExampleGraph();
  EXPECT_EQ(HopsToExit(g), (std::vector<uint32_t>{3, 2, 2, 1, 0}));
}

TEST(HopsToExitTest, DeadEndsAreUnreachable) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  LocationId dead = g.AddLocation("dead");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, dead).ok());
  ASSERT_TRUE(g.AddEdge(dead, dead).ok());  // a self-loop reaches nothing
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkExit(b).ok());
  auto hops = HopsToExit(g);
  EXPECT_EQ(hops[a], 1u);
  EXPECT_EQ(hops[b], 0u);
  EXPECT_EQ(hops[dead], ReachabilityMatrix::kUnreachable);
}

TEST(HopsToExitTest, MatchesNearestExitByForwardBfs) {
  // Property, on cyclic graphs with several exits: the reverse multi-source
  // search equals the minimum forward BFS distance to any exit.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    TransitionGraph g = MakeChainGraph(9);
    AddRandomEdges(g, 10, rng);
    ASSERT_TRUE(g.MarkExit(static_cast<LocationId>(rng.UniformIndex(9))).ok());
    auto hops = HopsToExit(g);
    for (LocationId v = 0; v < g.num_locations(); ++v) {
      uint32_t want = ReachabilityMatrix::kUnreachable;
      if (g.IsExit(v)) {
        want = 0;
      } else {
        auto dist = BfsHops(g, v);
        for (LocationId e : g.exits()) want = std::min(want, dist[e]);
      }
      EXPECT_EQ(hops[v], want) << "trial=" << trial << " v=" << v;
    }
  }
}

// ------------------------------------------------------ ReachabilityMatrix

TEST(ReachabilityTest, HopCountsOnPaperGraph) {
  TransitionGraph g = MakePaperExampleGraph();
  auto m = FullReachability(g);
  EXPECT_EQ(m.Hops(0, 1), 1u);  // A->B
  EXPECT_EQ(m.Hops(0, 2), 2u);  // A->B->C
  EXPECT_EQ(m.Hops(0, 3), 2u);  // A->B->D
  EXPECT_EQ(m.Hops(0, 4), 3u);  // A->B->D->E
  EXPECT_EQ(m.Hops(2, 4), 2u);  // C->D->E
  EXPECT_EQ(m.Hops(4, 0), ReachabilityMatrix::kUnreachable);
}

TEST(ReachabilityTest, DiagonalIsUnreachableInAcyclicGraph) {
  TransitionGraph g = MakePaperExampleGraph();
  auto m = FullReachability(g);
  for (LocationId v = 0; v < g.num_locations(); ++v) {
    EXPECT_EQ(m.Hops(v, v), ReachabilityMatrix::kUnreachable);
  }
}

TEST(ReachabilityTest, DiagonalIsShortestCycleLength) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  LocationId c = g.AddLocation("C");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  ASSERT_TRUE(g.AddEdge(c, a).ok());
  auto m = FullReachability(g);
  EXPECT_EQ(m.Hops(a, a), 3u);
  EXPECT_EQ(m.Hops(b, b), 3u);
  EXPECT_EQ(m.Hops(c, c), 3u);
}

TEST(ReachabilityTest, SelfLoopGivesCycleLengthOne) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  ASSERT_TRUE(g.AddEdge(a, a).ok());
  auto m = FullReachability(g);
  EXPECT_EQ(m.Hops(a, a), 1u);
}

TEST(ReachabilityTest, ReachableRespectsHopBudget) {
  TransitionGraph g = MakePaperExampleGraph();
  auto m = FullReachability(g);
  EXPECT_TRUE(m.Reachable(0, 4, 3));   // A->E in 3 hops
  EXPECT_FALSE(m.Reachable(0, 4, 2));  // not in 2
  EXPECT_FALSE(m.Reachable(4, 0, m.bound()));  // E reaches nothing
}

TEST(ReachabilityTest, MatchesBfsOnRandomDags) {
  // Property: the full build's hop counts equal a per-source BFS.
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    TransitionGraph g = MakeChainGraph(8);
    AddRandomForwardEdges(g, 6, rng);
    size_t n = g.num_locations();
    auto m = FullReachability(g);
    for (LocationId s = 0; s < n; ++s) {
      auto dist = BfsHops(g, s);
      for (LocationId t = 0; t < n; ++t) {
        EXPECT_EQ(m.Hops(s, t), dist[t]) << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ReachabilityTest, BoundedBuildMatchesBfsWithinBound) {
  // Property: for every hop budget <= the build bound, Hops/Reachable agree
  // with a per-source BFS — including the diagonal-as-shortest-cycle
  // semantics — on cyclic shapes, and everything past the bound reads
  // kUnreachable. This is the contract PredicateEvaluator's θ−1 build
  // relies on.
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    TransitionGraph g = MakeChainGraph(9);
    AddRandomEdges(g, 10, rng);  // backward edges create cycles
    size_t n = g.num_locations();
    for (uint32_t bound : {0u, 1u, 3u, 5u, 12u}) {
      auto m = ReachabilityMatrix::BuildBounded(g, bound);
      EXPECT_EQ(m.bound(), bound);
      for (LocationId s = 0; s < n; ++s) {
        auto dist = BfsHops(g, s);
        for (LocationId t = 0; t < n; ++t) {
          uint32_t want = dist[t];
          if (want != ReachabilityMatrix::kUnreachable && want <= bound) {
            EXPECT_EQ(m.Hops(s, t), want) << "s=" << s << " t=" << t;
          } else {
            EXPECT_EQ(m.Hops(s, t), ReachabilityMatrix::kUnreachable)
                << "s=" << s << " t=" << t << " bound=" << bound;
          }
          for (uint32_t h = 0; h <= bound; ++h) {
            EXPECT_EQ(m.Reachable(s, t, h),
                      want != ReachabilityMatrix::kUnreachable && want <= h)
                << "s=" << s << " t=" << t << " h=" << h;
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------------- Paths

TEST(PathsTest, EnumerateValidPathsOnPaperGraph) {
  TransitionGraph g = MakePaperExampleGraph();
  auto paths = EnumerateValidPaths(g, 5);
  ASSERT_TRUE(paths.ok());
  // Exactly three valid paths: ABCDE, ABDE, CDE.
  ASSERT_EQ(paths->size(), 3u);
  std::set<std::vector<LocationId>> expected = {
      {0, 1, 2, 3, 4}, {0, 1, 3, 4}, {2, 3, 4}};
  std::set<std::vector<LocationId>> got(paths->begin(), paths->end());
  EXPECT_EQ(got, expected);
}

TEST(PathsTest, MaxLenLimitsPaths) {
  TransitionGraph g = MakePaperExampleGraph();
  auto paths = EnumerateValidPaths(g, 4);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 2u);  // ABCDE excluded
  auto paths3 = EnumerateValidPaths(g, 3);
  ASSERT_TRUE(paths3.ok());
  EXPECT_EQ(paths3->size(), 1u);  // only CDE
}

TEST(PathsTest, EveryEnumeratedPathIsValid) {
  TransitionGraph g = MakeGridNetwork(3, 4);
  auto paths = EnumerateValidPaths(g, 7);
  ASSERT_TRUE(paths.ok());
  EXPECT_GT(paths->size(), 0u);
  for (const auto& p : *paths) {
    EXPECT_TRUE(g.IsValidPath(p));
    EXPECT_LE(p.size(), 7u);
  }
}

TEST(PathsTest, EnumerationCapsPathExplosion) {
  TransitionGraph g = MakeGridNetwork(6, 6);
  auto paths = EnumerateValidPaths(g, 12, /*max_paths=*/10);
  EXPECT_FALSE(paths.ok());
  EXPECT_EQ(paths.status().code(), StatusCode::kOutOfRange);
}

TEST(PathsTest, EnumerationRejectsInvalidGraph) {
  TransitionGraph g;
  g.AddLocation("A");
  auto paths = EnumerateValidPaths(g, 3);
  EXPECT_FALSE(paths.ok());
}

TEST(PathsTest, SamplerDrawsOnlyValidPaths) {
  TransitionGraph g = MakePaperExampleGraph();
  auto sampler = ValidPathSampler::Create(g, 5);
  ASSERT_TRUE(sampler.ok());
  EXPECT_EQ(sampler->num_paths(), 3u);
  Rng rng(4);
  std::set<size_t> lengths;
  for (int i = 0; i < 100; ++i) {
    const auto& p = sampler->Sample(rng);
    EXPECT_TRUE(g.IsValidPath(p));
    lengths.insert(p.size());
  }
  EXPECT_EQ(lengths, (std::set<size_t>{3, 4, 5}));  // all paths drawn
}

TEST(PathsTest, SamplerFailsWithoutValidPaths) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkExit(b).ok());
  // No edge A->B: no valid path exists.
  auto sampler = ValidPathSampler::Create(g, 5);
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- Generators

TEST(GeneratorsTest, PaperExampleGraphShape) {
  TransitionGraph g = MakePaperExampleGraph();
  EXPECT_EQ(g.num_locations(), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GeneratorsTest, RealLikeGraphShape) {
  TransitionGraph g = MakeRealLikeGraph();
  EXPECT_EQ(g.num_locations(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.Validate().ok());
  auto paths = EnumerateValidPaths(g, 4);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);  // ABCD, ABD, CD
}

TEST(GeneratorsTest, ChainGraphShape) {
  for (size_t n : {2u, 6u, 10u}) {
    TransitionGraph g = MakeChainGraph(n);
    EXPECT_EQ(g.num_locations(), n);
    EXPECT_EQ(g.num_edges(), n - 1);
    EXPECT_TRUE(g.Validate().ok());
    auto paths = EnumerateValidPaths(g, n);
    ASSERT_TRUE(paths.ok());
    EXPECT_EQ(paths->size(), 1u);  // the chain itself
  }
}

TEST(GeneratorsTest, AddRandomForwardEdgesAddsExactlyCount) {
  Rng rng(8);
  TransitionGraph g = MakeChainGraph(8);
  size_t before = g.num_edges();
  size_t added = AddRandomForwardEdges(g, 3, rng);
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(g.num_edges(), before + 3);
}

TEST(GeneratorsTest, AddRandomForwardEdgesOnlyAddsForward) {
  Rng rng(8);
  TransitionGraph g = MakeChainGraph(6);
  AddRandomForwardEdges(g, 100, rng);  // saturate
  for (LocationId u = 0; u < g.num_locations(); ++u) {
    for (LocationId v : g.OutNeighbors(u)) {
      EXPECT_LT(u, v);
    }
  }
  // Saturated DAG on 6 vertices has 15 edges.
  EXPECT_EQ(g.num_edges(), 15u);
}

TEST(GeneratorsTest, AddRandomForwardEdgesSaturates) {
  Rng rng(8);
  TransitionGraph g = MakeChainGraph(4);
  size_t added = AddRandomForwardEdges(g, 100, rng);
  EXPECT_EQ(added, 3u);  // 6 possible forward edges, 3 already in the chain
}

TEST(GeneratorsTest, GridNetworkValidates) {
  TransitionGraph g = MakeGridNetwork(3, 5);
  EXPECT_EQ(g.num_locations(), 15u);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.entrances().size(), 3u);
  EXPECT_EQ(g.exits().size(), 3u);
  // Every vertex can reach an exit (east column is absorbing).
  auto hops = HopsToExit(g);
  for (LocationId v = 0; v < g.num_locations(); ++v) {
    EXPECT_NE(hops[v], ReachabilityMatrix::kUnreachable) << g.LocationName(v);
  }
}

}  // namespace
}  // namespace idrepair

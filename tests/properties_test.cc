// Cross-module property tests: the paper's theorems and the invariants
// linking the predicates, index and enumeration, exercised over randomized
// workloads.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "fault/deadline.h"
#include "fault/failpoint.h"
#include "gen/error_model.h"
#include "gen/id_generator.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "graph/paths.h"
#include "graph/reachability.h"
#include "lig/length_indexed_grids.h"
#include "repair/predicates.h"
#include "repair/repairer.h"
#include "sim/edit_distance.h"
#include "stream/streaming_repairer.h"
#include "traj/merge.h"

namespace idrepair {
namespace {

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Theorem 3.2 direction: cex is necessary for pairwise joinability — every
// jnb pair must be a cex pair.
TEST_P(SeededPropertyTest, CexIsNecessaryForPairwiseJnb) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 60;
  config.max_path_len = 4;
  config.seed = GetParam();
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  PredicateEvaluator pred(graph, 4, 600);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    if (!pred.InternallyFeasible(set.at(i))) continue;
    for (TrajIndex j = i + 1; j < set.size(); ++j) {
      if (!pred.InternallyFeasible(set.at(j))) continue;
      const Trajectory* pair[] = {&set.at(i), &set.at(j)};
      if (pred.Jnb(pair)) {
        EXPECT_TRUE(pred.Cex(set.at(i), set.at(j)))
            << "jnb pair without cex: " << i << "," << j;
      }
    }
  }
}

// Theorem 5.3 direction: pck is necessary for jnb on start-time-sorted
// pairs.
TEST_P(SeededPropertyTest, PckIsNecessaryForJnb) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 60;
  config.max_path_len = 4;
  config.seed = GetParam() ^ 0xf00d;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  PredicateEvaluator pred(graph, 4, 600);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    for (TrajIndex j = i + 1; j < set.size(); ++j) {
      // TrajectorySet order is start-time order, so (i, j) is sorted.
      const Trajectory* pair[] = {&set.at(i), &set.at(j)};
      if (pred.Jnb(pair)) {
        EXPECT_TRUE(pred.Pck(pair)) << i << "," << j;
      }
    }
  }
}

// The LIG grid criteria are necessary for cex: no cex-positive pair may be
// filtered out by the index — on a one-hour window and on an eight-week one.
TEST_P(SeededPropertyTest, LigIsNecessaryForCex) {
  TransitionGraph graph = MakeRealLikeGraph();
  for (Timestamp window : {Timestamp{3600}, Timestamp{8 * 7 * 24 * 3600}}) {
    SCOPED_TRACE("window_seconds " + std::to_string(window));
    SyntheticConfig config;
    config.num_trajectories = 80;
    config.max_path_len = 4;
    config.window_seconds = window;
    config.seed = GetParam() ^ 0xbeef;
    auto ds = GenerateSyntheticDataset(graph, config);
    ASSERT_TRUE(ds.ok());
    TrajectorySet set = ds->BuildObservedTrajectories();
    PredicateEvaluator pred(graph, 4, 600);
    LengthIndexedGrids::Options lig_opts{4, 600, 60};
    LengthIndexedGrids lig(set, lig_opts);
    std::vector<TrajIndex> out;
    for (TrajIndex i = 0; i < set.size(); ++i) {
      out.clear();
      lig.CollectCandidates(i, &out);
      std::set<TrajIndex> candidates(out.begin(), out.end());
      for (TrajIndex j = 0; j < set.size(); ++j) {
        if (i == j) continue;
        if (!pred.InternallyFeasible(set.at(i)) ||
            !pred.InternallyFeasible(set.at(j))) {
          continue;
        }
        if (pred.Cex(set.at(i), set.at(j))) {
          EXPECT_TRUE(candidates.count(j) > 0)
              << "LIG dropped cex pair " << i << "," << j;
        }
      }
    }
  }
}

// Merging is order-insensitive: any permutation of the group produces the
// same (loc, ts) sequence.
TEST_P(SeededPropertyTest, MergeIsOrderInsensitive) {
  Rng rng(GetParam() ^ 0xcafe);
  std::vector<Trajectory> trajs;
  for (int t = 0; t < 4; ++t) {
    std::vector<TrajectoryPoint> points;
    size_t len = 1 + rng.UniformIndex(3);
    Timestamp ts = static_cast<Timestamp>(rng.UniformIndex(100));
    for (size_t i = 0; i < len; ++i) {
      ts += 1 + static_cast<Timestamp>(rng.UniformIndex(50));
      points.push_back(
          TrajectoryPoint{static_cast<LocationId>(rng.UniformIndex(4)), ts});
    }
    std::string name = "t";
    name += std::to_string(t);
    trajs.emplace_back(std::move(name), std::move(points));
  }
  std::vector<const Trajectory*> order = {&trajs[0], &trajs[1], &trajs[2],
                                          &trajs[3]};
  auto reference = MergeChronological(order);
  for (int perm = 0; perm < 5; ++perm) {
    rng.Shuffle(order.begin(), order.end());
    auto merged = MergeChronological(order);
    ASSERT_EQ(merged.size(), reference.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].loc, reference[i].loc);
      EXPECT_EQ(merged[i].ts, reference[i].ts);
    }
  }
}

// Reachability on graphs WITH cycles: hop counts still match BFS, and the
// diagonal equals the shortest cycle through each vertex.
TEST_P(SeededPropertyTest, ReachabilityHandlesCycles) {
  Rng rng(GetParam() ^ 0x51de);
  TransitionGraph g = MakeChainGraph(7);
  AddRandomEdges(g, 5, rng);  // may add backward edges -> cycles
  size_t n = g.num_locations();
  // Bounded at |V|: every shortest walk or cycle fits.
  auto m = ReachabilityMatrix::BuildBounded(g, static_cast<uint32_t>(n));
  for (LocationId s = 0; s < n; ++s) {
    std::vector<uint32_t> dist(n, ReachabilityMatrix::kUnreachable);
    std::vector<LocationId> frontier = {s};
    uint32_t depth = 0;
    while (!frontier.empty() && depth <= n + 1) {
      ++depth;
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
    for (LocationId t = 0; t < n; ++t) {
      if (s == t) {
        EXPECT_EQ(m.Hops(s, s), dist[s]) << "cycle through " << s;
      } else {
        EXPECT_EQ(m.Hops(s, t), dist[t]) << s << "->" << t;
      }
    }
  }
}

// Streaming: the multiset of emitted records is the input multiset no
// matter how often the stream is polled.
TEST_P(SeededPropertyTest, StreamingConservesRecordsAtAnyPollCadence) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 60;
  config.max_path_len = 4;
  config.seed = GetParam() ^ 0x1234;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  auto records = ds->ObservedRecords();
  std::sort(records.begin(), records.end(), RecordChronoLess);

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  for (size_t cadence : {1u, 7u, 50u, 10000u}) {
    StreamingRepairer stream(graph, options);
    size_t emitted_records = 0;
    size_t count = 0;
    for (const auto& r : records) {
      ASSERT_TRUE(stream.Append(r).ok());
      if (++count % cadence == 0) {
        for (const auto& t : stream.Poll()) emitted_records += t.size();
      }
    }
    for (const auto& t : stream.Finish()) emitted_records += t.size();
    EXPECT_EQ(emitted_records, records.size()) << "cadence " << cadence;
  }
}

// Watermark semantics: the watermark is monotone over the stream's
// lifetime (polls never move it, appends only advance it), and nothing a
// Poll() emits can still be affected by an in-window arrival — every
// emitted trajectory starts at least η behind the watermark at emission
// time, even under the most aggressive flush horizon.
TEST_P(SeededPropertyTest, StreamingWatermarkIsMonotoneAndGatesEmission) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 60;
  config.max_path_len = 4;
  config.seed = GetParam() ^ 0x5151;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  auto records = ds->ObservedRecords();
  std::sort(records.begin(), records.end(), RecordChronoLess);

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  StreamOptions stream_options;
  stream_options.flush_horizon_multiplier = 1.0;  // horizon clamps to η
  StreamingRepairer stream(graph, options, stream_options);
  Rng rng(GetParam() ^ 0x9292);
  Timestamp last_watermark = 0;
  bool saw_any = false;
  for (const auto& r : records) {
    ASSERT_TRUE(stream.Append(r).ok());
    if (saw_any) {
      EXPECT_GE(stream.watermark(), last_watermark);
    }
    saw_any = true;
    last_watermark = stream.watermark();
    if (rng.UniformIndex(4) == 0) {
      for (const auto& t : stream.Poll()) {
        EXPECT_LE(t.start_time(), stream.watermark() - options.eta)
            << "emitted trajectory still affectable by in-window arrivals";
      }
      EXPECT_EQ(stream.watermark(), last_watermark)
          << "polls must not move the watermark";
    }
  }
}

// Eviction under bounded-buffer backpressure conserves records: rejected
// appends mutate nothing and can be retried after draining, and the
// multiset of emitted records is exactly the input.
TEST_P(SeededPropertyTest, StreamingBackpressureConservesRecords) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 50;
  config.max_path_len = 4;
  config.seed = GetParam() ^ 0x7b7b;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  auto records = ds->ObservedRecords();
  std::sort(records.begin(), records.end(), RecordChronoLess);

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  StreamOptions stream_options;
  stream_options.flush_horizon_multiplier = 1.0;
  stream_options.max_buffered = 16 + GetParam() % 17;  // vary the bound
  StreamingRepairer stream(graph, options, stream_options);
  size_t emitted_records = 0;
  for (const auto& r : records) {
    Status appended = stream.Append(r);
    if (!appended.ok()) {
      ASSERT_EQ(appended.code(), StatusCode::kResourceExhausted)
          << appended;
      // Drain and retry: a poll may free nothing (an open component can
      // legitimately hold the whole buffer), so fall back to Finish().
      for (const auto& t : stream.Poll()) emitted_records += t.size();
      if (stream.pending_records() >= stream_options.max_buffered) {
        for (const auto& t : stream.Finish()) emitted_records += t.size();
      }
      appended = stream.Append(r);
      ASSERT_TRUE(appended.ok()) << appended;
    }
  }
  EXPECT_GT(stream.appends_rejected(), 0u)
      << "backpressure never engaged; bound too large for the dataset";
  for (const auto& t : stream.Finish()) emitted_records += t.size();
  EXPECT_EQ(emitted_records, records.size());
  EXPECT_EQ(stream.pending_records(), 0u);
}

// Valid paths sampled by the generator always satisfy IsValidPath, and
// each sampled path's suffix is a witness bounding HopsToExit: from the
// i-th location an exit is at most |path| - 1 - i hops away.
TEST_P(SeededPropertyTest, SampledPathSuffixesBoundHopsToExit) {
  TransitionGraph g = MakeGridNetwork(3, 4);
  auto sampler = ValidPathSampler::Create(g, 7);
  ASSERT_TRUE(sampler.ok());
  auto hops = HopsToExit(g);
  Rng rng(GetParam() ^ 0x7777);
  for (int i = 0; i < 30; ++i) {
    const auto& path = sampler->Sample(rng);
    EXPECT_TRUE(g.IsValidPath(path));
    for (size_t pos = 0; pos < path.size(); ++pos) {
      EXPECT_LE(hops[path[pos]], path.size() - 1 - pos);
    }
  }
}

// Graceful degradation dominates nothing: a partial result produced under
// a (forced) deadline can only lose Eq. (3)/(4) effectiveness relative to
// the fault-free run on the same seed — phases that never ran and commits
// the selection loop never made contribute zero — and every repair it does
// emit is still a valid trajectory of Gt (starts in I, follows transition
// edges, ends in O), exactly like a fault-free repair.
TEST_P(SeededPropertyTest, PartialResultsAreDominatedAndStillValid) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 80;
  config.record_error_rate = 0.2;
  config.max_path_len = 4;
  config.seed = GetParam() ^ 0xdead;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.exec.num_threads = 1;  // deterministic which boundaries expire

  IdRepairer engine(graph, options);
  auto full = engine.Repair(set);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->completion.ok());

  // Force expiry at a seeded deadline check — at a phase boundary or
  // between two selection commits. Expiry latches, so the cutoff point
  // varies with the seed and everything after it passes through
  // unrepaired. The run needs a (never actually elapsing) budget so
  // the deadline is enabled at all.
  fault::FaultSpec expire;
  expire.one_in = 2;
  expire.seed = GetParam();
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  .Arm(fault::kDeadlineExpireSite, expire)
                  .ok());
  RepairOptions budgeted = options;
  budgeted.deadline_ms = 600000;
  auto partial = IdRepairer(graph, budgeted).Repair(set);
  fault::FailPointRegistry::Global().DisarmAll();
  ASSERT_TRUE(partial.ok()) << partial.status();

  // Eq. (3) domination: Ω(partial) <= Ω(full) on the same input.
  EXPECT_LE(partial->total_effectiveness, full->total_effectiveness);
  // Degradation is never destructive: nothing dropped or invented.
  EXPECT_EQ(partial->repaired.total_records(), set.total_records());
  // If any work was skipped, the result says so.
  if (partial->total_effectiveness < full->total_effectiveness) {
    EXPECT_EQ(partial->completion.code(), StatusCode::kDeadlineExceeded);
  }

  // Every repair the partial run did apply is still a valid trajectory.
  auto idx = partial->repaired.BuildIdIndex();
  for (RepairIndex r : partial->selected) {
    const auto& cands = partial->candidates;
    if (cands.num_members(r) < 2) continue;
    auto it = idx.find(cands.target_id(r));
    ASSERT_NE(it, idx.end()) << cands.target_id(r);
    EXPECT_TRUE(partial->repaired.at(it->second).IsValid(graph))
        << "partial run applied an invalid join to " << cands.target_id(r);
  }
}

// Phase 2 invariants (Eq. 3/4) for every greedy selection algorithm: the
// selected set is pairwise compatible (no shared member trajectory — an
// independent set of Gr), maximal (every unselected candidate the algorithm
// was allowed to take conflicts with a selected one), and the reported Ω is
// exactly the Eq. 3 sum recomputed from each candidate's stored similarity
// and rarity.
TEST_P(SeededPropertyTest, SelectionInvariantsHold) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 80;
  config.record_error_rate = 0.25;
  config.max_path_len = 4;
  config.seed = GetParam() ^ 0x5e1ec7;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();

  for (SelectionAlgorithm algorithm :
       {SelectionAlgorithm::kEmax, SelectionAlgorithm::kDmin,
        SelectionAlgorithm::kDmax}) {
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.selection = algorithm;
    IdRepairer engine(graph, options);
    auto result = engine.Repair(set);
    ASSERT_TRUE(result.ok()) << result.status();
    const auto& candidates = result->candidates;

    // Pairwise compatible: no trajectory belongs to two selected repairs.
    std::vector<uint8_t> used(set.size(), 0);
    std::vector<uint8_t> selected_mask(candidates.size(), 0);
    for (RepairIndex r : result->selected) {
      selected_mask[r] = 1;
      for (TrajIndex m : candidates.members(r)) {
        EXPECT_FALSE(used[m])
            << "selected repairs share trajectory " << m << " (algorithm "
            << static_cast<int>(algorithm) << ")";
        used[m] = 1;
      }
    }

    // Maximality: any candidate left out must conflict with the selection.
    // EMAX never takes ω <= 0 (Example 4.2), so those are exempt for it;
    // the degree heuristics are blind to ω and must be maximal outright.
    for (RepairIndex r = 0; r < candidates.size(); ++r) {
      if (selected_mask[r]) continue;
      if (algorithm == SelectionAlgorithm::kEmax &&
          candidates.effectiveness(r) <= 0.0) {
        continue;
      }
      bool conflicts = false;
      for (TrajIndex m : candidates.members(r)) {
        if (used[m]) {
          conflicts = true;
          break;
        }
      }
      EXPECT_TRUE(conflicts)
          << "candidate " << r << " is compatible with the whole selection "
          << "but was not taken (algorithm " << static_cast<int>(algorithm)
          << ")";
    }

    // Ω equals the Eq. 3 sum, recomputed from first principles:
    // ω(R) = sim(R) + λ · log_{ra+offset}(|ivt(R)|).
    double recomputed = 0.0;
    for (RepairIndex r : result->selected) {
      double ivt = static_cast<double>(candidates.num_invalid(r));
      double base =
          static_cast<double>(candidates.rarity(r) + options.rarity_base_offset);
      recomputed += candidates.similarity(r) +
                    options.lambda * (std::log(ivt) / std::log(base));
    }
    EXPECT_DOUBLE_EQ(result->total_effectiveness, recomputed);
  }
}

// Generator property (§6.1.1 ID model): every ID the generator hands out
// is fresh — across an entire dataset's worth of draws — and sits inside
// the 7..9 lowercase-letter envelope. Collision-freedom is what carries
// the paper's sparsity-of-IDs premise into every synthetic workload.
TEST_P(SeededPropertyTest, UniqueIdGeneratorIsCollisionFreeWithinBounds) {
  Rng rng(GetParam() * 7919);
  UniqueIdGenerator gen;
  std::set<std::string> seen;
  for (int i = 0; i < 2000; ++i) {
    std::string id = gen.Next(rng);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate ID: " << id;
    EXPECT_GE(id.size(), 7u);
    EXPECT_LE(id.size(), 9u);
    for (char c : id) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << "non-lowercase ID: " << id;
    }
    EXPECT_TRUE(gen.IsUsed(id));
  }
  // Reserve blocks externally chosen IDs from ever being drawn again.
  gen.Reserve("reservedid");
  EXPECT_TRUE(gen.IsUsed("reservedid"));
}

// Generator property: the empirical edit-distance histogram of mutated IDs
// tracks ErrorDistanceDistribution. Each sampled distance k is realized as
// k single edits, and independent random edits can partially cancel (an
// insert un-done by a delete), so mass may only leak *downward* — the
// empirical share at distance k must be within tolerance of the nominal
// probability plus any leakage from above, and distances above the support
// must never appear.
TEST_P(SeededPropertyTest, IdErrorModelTracksDistanceDistribution) {
  ErrorDistanceDistribution dist;  // nominal {0.55, 0.30, 0.10, 0.05}
  IdErrorModel model(dist);
  Rng rng(GetParam() * 104729);
  const std::string id = "abcdefgh";
  const int kTrials = 4000;
  std::vector<int> counts(dist.probs_by_distance.size() + 1, 0);
  for (int i = 0; i < kTrials; ++i) {
    size_t d = EditDistance(id, model.Mutate(id, rng));
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, dist.probs_by_distance.size());
    ++counts[d];
  }
  double cumulative_nominal = 0.0;
  double cumulative_observed = 0.0;
  for (size_t k = dist.probs_by_distance.size(); k >= 1; --k) {
    cumulative_nominal += dist.probs_by_distance[k - 1];
    cumulative_observed += static_cast<double>(counts[k]) / kTrials;
    // Tail mass at >= k: cancellation only moves mass below k, so the
    // observed tail is bounded above by nominal (+ sampling noise) and
    // below by nominal minus the cancellation allowance.
    EXPECT_LE(cumulative_observed, cumulative_nominal + 0.04)
        << "tail >= " << k;
    EXPECT_GE(cumulative_observed, cumulative_nominal - 0.08)
        << "tail >= " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace idrepair

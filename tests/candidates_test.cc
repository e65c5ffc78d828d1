#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/candidates.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::MakeTable2Trajectories;
using testutil::RunningExampleOptions;

class CandidatesFixture : public ::testing::Test {
 protected:
  CandidatesFixture()
      : graph_(MakePaperExampleGraph()),
        set_(MakeTable2Trajectories()),
        options_(RunningExampleOptions()),
        pred_(graph_, options_.theta, options_.eta) {}

  CandidateSet Generate() {
    TrajectoryGraph gm(set_, pred_, options_);
    std::vector<bool> is_valid(set_.size());
    for (TrajIndex i = 0; i < set_.size(); ++i) {
      is_valid[i] = set_.at(i).IsValid(graph_);
    }
    auto generated = GenerateCandidates(set_, gm, pred_, options_,
                                        similarity_, is_valid, &stats_);
    EXPECT_TRUE(generated.ok()) << generated.status();
    CandidateSet candidates = std::move(generated).value();
    EXPECT_TRUE(
        ComputeEffectiveness(candidates, options_, set_.size()).ok());
    // Deterministic order for assertions: re-emit rows sorted by member set.
    std::vector<size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      auto ma = candidates.members(a);
      auto mb = candidates.members(b);
      return std::lexicographical_compare(ma.begin(), ma.end(), mb.begin(),
                                          mb.end());
    });
    CandidateSet sorted;
    for (size_t r : order) {
      size_t row = sorted.Append(candidates.members(r),
                                 candidates.invalid_members(r),
                                 candidates.target_id(r),
                                 candidates.similarity(r));
      sorted.set_scores(row, candidates.rarity(r), candidates.effectiveness(r));
    }
    return sorted;
  }

  TransitionGraph graph_;
  TrajectorySet set_;
  RepairOptions options_;
  PredicateEvaluator pred_;
  NormalizedEditSimilarity similarity_;
  GenerationStats stats_;
};

// ----------------------------------------------------------- target IDs

TEST_F(CandidatesFixture, AssignTargetIdMatchesExample34) {
  // {T1, T2} -> GL21348 (trajectory 0); {T2, T3} -> GL83248 (trajectory 2).
  EXPECT_EQ(AssignTargetId(set_, {0, 1}, similarity_), 0u);
  EXPECT_EQ(AssignTargetId(set_, {1, 2}, similarity_), 2u);
  EXPECT_EQ(AssignTargetId(set_, {0}, similarity_), 0u);
}

TEST_F(CandidatesFixture, AssignTargetIdPrefersLongerTrajectories) {
  // A long trajectory with a dissimilar ID still wins Eq. (5) through the
  // |Ti|/|Tj| weights.
  std::vector<TrackingRecord> records = {
      {"aaaaaaa", 0, 0}, {"aaaaaaa", 1, 100}, {"aaaaaaa", 3, 200},
      {"aaazzzz", 4, 300}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  TrajIndex target = AssignTargetId(set, {0, 1}, similarity_);
  EXPECT_EQ(set.at(target).id(), "aaaaaaa");
}

TEST_F(CandidatesFixture, AssignTargetIdTieBreaksToEarlierMember) {
  std::vector<TrackingRecord> records = {{"same1", 0, 0}, {"same2", 1, 100}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  // Perfect symmetry: equal lengths, equal mutual similarity.
  EXPECT_EQ(AssignTargetId(set, {0, 1}, similarity_), 0u);
}

// ----------------------------------------------------------- generation

TEST_F(CandidatesFixture, GeneratesExactlyTheExample34Repairs) {
  auto candidates = Generate();
  // R1 = ({T1}, GL21348) has no invalid member and is dropped; R2 and R3
  // remain.
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates.members(0), (std::vector<TrajIndex>{0, 1}));
  EXPECT_EQ(candidates.target_id(0), "GL21348");
  EXPECT_EQ(candidates.invalid_members(0), (std::vector<TrajIndex>{1}));
  EXPECT_EQ(candidates.members(1), (std::vector<TrajIndex>{1, 2}));
  EXPECT_EQ(candidates.target_id(1), "GL83248");
  EXPECT_EQ(candidates.invalid_members(1), (std::vector<TrajIndex>{1, 2}));
}

TEST_F(CandidatesFixture, SimilarityMatchesEquationOne) {
  auto candidates = Generate();
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_NEAR(candidates.similarity(0), 1.0 - 4.0 / 7.0, 1e-9);  // 0.428
  EXPECT_NEAR(candidates.similarity(1), 1.0 - 2.0 / 7.0, 1e-9);  // 0.714
}

TEST_F(CandidatesFixture, EffectivenessWithDefaultEquationThree) {
  auto candidates = Generate();
  ASSERT_EQ(candidates.size(), 2u);
  // R2: |ivt| = 1 so the potency term vanishes; ω = sim.
  EXPECT_NEAR(candidates.effectiveness(0), 0.4286, 1e-3);
  // R3: d(T2)=2, d(T3)=1, min-rarity=1, base=2: ω = 0.714 + 0.5·log2(2).
  EXPECT_EQ(candidates.rarity(1), 1u);
  EXPECT_NEAR(candidates.effectiveness(1), 0.714 + 0.5, 1e-3);
}

TEST_F(CandidatesFixture, PaperWorkedExampleValueNeedsBaseOffsetTwo) {
  // Figure 4(b) reports ω(R3) = 1.029, reproducible with log base ra+2
  // (see DESIGN.md §3).
  options_.rarity_base_offset = 2;
  auto candidates = Generate();
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_NEAR(candidates.effectiveness(0), 0.428, 1e-3);
  EXPECT_NEAR(candidates.effectiveness(1), 1.029, 1e-3);
}

TEST_F(CandidatesFixture, MaxRarityAggregationUsesLargestDegree) {
  options_.rarity_aggregation = RarityAggregation::kMax;
  auto candidates = Generate();
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates.rarity(1), 2u);  // max(d(T2)=2, d(T3)=1)
  EXPECT_NEAR(candidates.effectiveness(1),
              0.714 + 0.5 * std::log(2.0) / std::log(3.0), 1e-3);
}

TEST_F(CandidatesFixture, GenerationStatsAreConsistent) {
  auto candidates = Generate();
  EXPECT_EQ(stats_.joinable_subsets, 3u);  // {T1}, {T1,T2}, {T2,T3}
  EXPECT_EQ(candidates.size(), 2u);        // minus the |ivt|=0 repair
  EXPECT_GE(stats_.jnb_checks, stats_.joinable_subsets);
}

TEST_F(CandidatesFixture, GenerationStatsSumIdenticallyAcrossThreadCounts) {
  // Pins the phase-1 counters of the paper's running example and checks the
  // sharded generator's deterministic reduction reports the same numbers at
  // every thread count. The qualified cliques are {T1}, {T1,T2}, {T2} and
  // {T2,T3} (4 jnb checks — {T3} is pck-pruned: D is no entrance); the
  // singleton {T2} fails jnb (C alone is no valid path), leaving 3 joinable
  // subsets.
  GenerationStats reference;
  for (int threads : {1, 2, 8}) {
    options_.exec.num_threads = threads;
    options_.exec.grain = 1;  // every seed its own shard
    Generate();
    EXPECT_EQ(stats_.jnb_checks, 4u) << threads << " threads";
    EXPECT_EQ(stats_.joinable_subsets, 3u) << threads << " threads";
    if (threads == 1) {
      reference = stats_;
    } else {
      EXPECT_EQ(stats_.jnb_checks, reference.jnb_checks);
      EXPECT_EQ(stats_.joinable_subsets, reference.joinable_subsets);
      EXPECT_EQ(stats_.clique_stats.cliques_emitted,
                reference.clique_stats.cliques_emitted);
      EXPECT_EQ(stats_.clique_stats.nodes_visited,
                reference.clique_stats.nodes_visited);
      EXPECT_EQ(stats_.clique_stats.pck_pruned,
                reference.clique_stats.pck_pruned);
    }
  }
}

// ------------------------------------------------- parallel determinism

// A single 200+-trajectory chain component — the workload where component-
// level parallelism degenerates to one task and only intra-component
// sharding can help. GenerateCandidates must produce bit-identical
// candidate vectors and identical merged stats at 1, 2 and 8 threads.
TEST(ParallelGenerationTest, SingleGiantComponentIsBitIdenticalAcrossThreads) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 210;
  config.window_seconds = 2400;  // dense: every start-time gap is far below η
  config.max_path_len = 4;
  config.seed = 4242;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok()) << ds.status();
  TrajectorySet set = ds->BuildObservedTrajectories();
  ASSERT_GE(set.size(), 200u);

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  // One chain component: consecutive start times all within η.
  for (TrajIndex i = 1; i < set.size(); ++i) {
    ASSERT_LE(set.at(i).start_time() - set.at(i - 1).start_time(),
              options.eta);
  }

  PredicateEvaluator pred(graph, options.theta, options.eta);
  NormalizedEditSimilarity similarity;
  std::vector<bool> is_valid(set.size());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    is_valid[i] = set.at(i).IsValid(graph);
  }

  CandidateSet reference;
  GenerationStats reference_stats;
  for (int threads : {1, 2, 8}) {
    RepairOptions o = options;
    o.exec.num_threads = threads;
    o.exec.grain = 4;  // many shards even at 2 threads
    TrajectoryGraph gm(set, pred, o);
    GenerationStats stats;
    auto generated =
        GenerateCandidates(set, gm, pred, o, similarity, is_valid, &stats);
    ASSERT_TRUE(generated.ok()) << generated.status();
    CandidateSet candidates = std::move(generated).value();
    ASSERT_TRUE(ComputeEffectiveness(candidates, o, set.size()).ok());
    if (threads == 1) {
      ASSERT_GT(candidates.size(), 100u) << "workload too easy to be a test";
      reference = std::move(candidates);
      reference_stats = stats;
      continue;
    }
    SCOPED_TRACE(threads);
    ASSERT_EQ(candidates.size(), reference.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(candidates.members(i), reference.members(i))
          << "candidate " << i;
      EXPECT_EQ(candidates.target_id(i), reference.target_id(i))
          << "candidate " << i;
      EXPECT_EQ(candidates.invalid_members(i), reference.invalid_members(i))
          << "candidate " << i;
      // Bit-identical floats, not approximately equal: scoring happens
      // inside a shard in sequential order, so no summation is reordered.
      EXPECT_EQ(candidates.similarity(i), reference.similarity(i))
          << "candidate " << i;
      EXPECT_EQ(candidates.rarity(i), reference.rarity(i))
          << "candidate " << i;
      EXPECT_EQ(candidates.effectiveness(i), reference.effectiveness(i))
          << "candidate " << i;
    }
    EXPECT_EQ(stats.jnb_checks, reference_stats.jnb_checks);
    EXPECT_EQ(stats.joinable_subsets, reference_stats.joinable_subsets);
    EXPECT_EQ(stats.clique_stats.cliques_emitted,
              reference_stats.clique_stats.cliques_emitted);
    EXPECT_EQ(stats.clique_stats.nodes_visited,
              reference_stats.clique_stats.nodes_visited);
    EXPECT_EQ(stats.clique_stats.pck_pruned,
              reference_stats.clique_stats.pck_pruned);
  }
}

// Property/stress: randomized grains (including the auto sentinel and
// degenerate explicit draws) × threads {1, 2, 4, 8} must leave generation
// byte-identical to the 1-thread reference, with exact GenerationStats
// conservation — the dynamic scheduler may claim blocks in any order, but
// the block decomposition and the merge are pure functions of the grain.
TEST(ParallelGenerationTest, RandomizedGrainsAreBitIdenticalToSerial) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 120;
  config.window_seconds = 1800;
  config.max_path_len = 4;
  config.seed = 20260811;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok()) << ds.status();
  TrajectorySet set = ds->BuildObservedTrajectories();

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  PredicateEvaluator pred(graph, options.theta, options.eta);
  NormalizedEditSimilarity similarity;
  std::vector<bool> is_valid(set.size());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    is_valid[i] = set.at(i).IsValid(graph);
  }

  // 1-thread auto grain is the serial reference schedule by construction.
  CandidateSet reference;
  GenerationStats reference_stats;
  {
    RepairOptions o = options;
    o.exec.num_threads = 1;
    TrajectoryGraph gm(set, pred, o);
    auto generated = GenerateCandidates(set, gm, pred, o, similarity,
                                        is_valid, &reference_stats);
    ASSERT_TRUE(generated.ok()) << generated.status();
    reference = std::move(generated).value();
    ASSERT_TRUE(ComputeEffectiveness(reference, o, set.size()).ok());
    ASSERT_GT(reference.size(), 20u) << "workload too easy to be a test";
  }

  // Grain 0 is the auto sentinel; the explicit draws are fixed (not
  // time-seeded) so a failure reproduces.
  const size_t grains[] = {0, 1, 3, 17, 1000};
  for (size_t grain : grains) {
    for (int threads : {1, 2, 4, 8}) {
      RepairOptions o = options;
      o.exec.num_threads = threads;
      o.exec.grain = grain;
      TrajectoryGraph gm(set, pred, o);
      GenerationStats stats;
      auto generated =
          GenerateCandidates(set, gm, pred, o, similarity, is_valid, &stats);
      ASSERT_TRUE(generated.ok()) << generated.status();
      CandidateSet candidates = std::move(generated).value();
      ASSERT_TRUE(ComputeEffectiveness(candidates, o, set.size()).ok());
      SCOPED_TRACE("grain=" + std::to_string(grain) +
                   " threads=" + std::to_string(threads));
      ASSERT_EQ(candidates.size(), reference.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        ASSERT_EQ(candidates.members(i), reference.members(i));
        ASSERT_EQ(candidates.invalid_members(i),
                  reference.invalid_members(i));
        ASSERT_EQ(candidates.target_id(i), reference.target_id(i));
        ASSERT_EQ(candidates.similarity(i), reference.similarity(i));
        ASSERT_EQ(candidates.rarity(i), reference.rarity(i));
        ASSERT_EQ(candidates.effectiveness(i), reference.effectiveness(i));
      }
      // Exact conservation: every decomposition sees the same work.
      EXPECT_EQ(stats.jnb_checks, reference_stats.jnb_checks);
      EXPECT_EQ(stats.joinable_subsets, reference_stats.joinable_subsets);
      EXPECT_EQ(stats.clique_stats.cliques_emitted,
                reference_stats.clique_stats.cliques_emitted);
      EXPECT_EQ(stats.clique_stats.nodes_visited,
                reference_stats.clique_stats.nodes_visited);
      EXPECT_EQ(stats.clique_stats.pck_pruned,
                reference_stats.clique_stats.pck_pruned);
      // The scheduler footprint is reported and internally consistent.
      EXPECT_GE(stats.sched_blocks, 1u);
      EXPECT_GE(stats.sched_workers, 1u);
      EXPECT_LE(stats.sched_workers,
                static_cast<size_t>(std::max(threads, 1)));
      EXPECT_GE(stats.sched_imbalance, 1.0);
      if (threads == 1) {
        EXPECT_EQ(stats.sched_workers, 1u);
      }
    }
  }

  // Run-to-run determinism at a fixed decomposition: the similarity-memo
  // hit count is a pure function of (input, grain), so two identical runs
  // agree exactly even though the memo lives in pool-owned scratch.
  for (size_t grain : {size_t{0}, size_t{5}}) {
    GenerationStats first, second;
    for (GenerationStats* stats : {&first, &second}) {
      RepairOptions o = options;
      o.exec.num_threads = 8;
      o.exec.grain = grain;
      TrajectoryGraph gm(set, pred, o);
      auto generated =
          GenerateCandidates(set, gm, pred, o, similarity, is_valid, stats);
      ASSERT_TRUE(generated.ok()) << generated.status();
    }
    EXPECT_EQ(first.similarity_cache_hits, second.similarity_cache_hits)
        << "grain=" << grain;
  }
}

TEST_F(CandidatesFixture, LambdaScalesThePotencyTerm) {
  options_.lambda = 1.0;
  auto candidates = Generate();
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_NEAR(candidates.effectiveness(1), 0.714 + 1.0, 1e-3);
}

TEST_F(CandidatesFixture, TargetIdIsAlwaysAMemberId) {
  auto candidates = Generate();
  for (size_t r = 0; r < candidates.size(); ++r) {
    bool found = false;
    for (TrajIndex m : candidates.members(r)) {
      found = found || set_.at(m).id() == candidates.target_id(r);
    }
    EXPECT_TRUE(found) << candidates.target_id(r);
  }
}

// ------------------------------------------------------- concatenation

// One candidate row with every column the set stores.
struct RowSpec {
  std::vector<TrajIndex> members;
  std::vector<TrajIndex> invalid;
  std::string target;
  double similarity;
  uint32_t rarity;
  double effectiveness;
};

// Builds one block the way the generator does: each distinct target name
// is added once and reused by id.
CandidateSet BuildBlock(const std::vector<RowSpec>& rows) {
  CandidateSet block;
  std::map<std::string, CandidateSet::NameId> names;
  for (const RowSpec& row : rows) {
    auto it = names.find(row.target);
    if (it == names.end()) {
      it = names.emplace(row.target, block.AddTargetName(row.target)).first;
    }
    size_t r = block.Append(row.members, row.invalid, it->second,
                            row.similarity);
    block.set_scores(r, row.rarity, row.effectiveness);
  }
  return block;
}

void ExpectSameRows(const CandidateSet& got, const CandidateSet& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    EXPECT_EQ(got.members(r), want.members(r));
    EXPECT_EQ(got.invalid_members(r), want.invalid_members(r));
    EXPECT_EQ(got.num_members(r), want.num_members(r));
    EXPECT_EQ(got.num_invalid(r), want.num_invalid(r));
    EXPECT_EQ(got.target_id(r), want.target_id(r));
    EXPECT_EQ(got.similarity(r), want.similarity(r));
    EXPECT_EQ(got.rarity(r), want.rarity(r));
    EXPECT_EQ(got.effectiveness(r), want.effectiveness(r));
  }
}

// Blocks shaped like the generator's: target names repeat across blocks,
// ivt(R) ranges from one member to all of them, and some blocks root no
// candidate at all — at the start, in the middle and at the end.
std::vector<std::vector<RowSpec>> ConcatenationStream() {
  return {
      {},
      {{{0, 1}, {1}, "alpha", 0.5, 3, 1.25},
       {{0, 2}, {0, 2}, "alpha", 0.25, 1, 0.75},
       {{0, 1, 2}, {1}, "bravo", 0.125, 2, 0.5}},
      {},
      {},
      {{{1, 2}, {1}, "alpha", 0.75, 4, 2.0},
       {{1, 3}, {1, 3}, "a-twenty-char-target", 0.5, 1, 1.5}},
      {{{2, 3}, {2, 3}, "charlie", 1.0, 2, 1.0},
       {{2, 4}, {4}, "alpha", 0.375, 5, 0.25}},
      {},
  };
}

TEST(CandidateConcatenationTest, EqualsRowByRowAppendOfTheSameStream) {
  const auto stream = ConcatenationStream();
  CandidateSet reference;
  for (const auto& block : stream) {
    for (const RowSpec& row : block) {
      size_t r = reference.Append(row.members, row.invalid, row.target,
                                  row.similarity);
      reference.set_scores(r, row.rarity, row.effectiveness);
    }
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<CandidateSet> blocks;
    for (const auto& rows : stream) blocks.push_back(BuildBlock(rows));
    auto joined = CandidateSet::Concatenate(std::move(blocks), threads);
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_TRUE(blocks.empty());
    ExpectSameRows(*joined, reference);

    // Each column was sized once, so the footprint is exactly the content:
    // per row an end offset, an ivt mask, a name id and the three scores;
    // the leading zero offset; every member once in the arena; and each
    // block's names (a name two blocks share is stored twice).
    size_t entries = 0;
    for (size_t r = 0; r < reference.size(); ++r) {
      entries += reference.num_members(r);
    }
    EXPECT_EQ(joined->member_entries(), entries);
    size_t names = 6;  // alpha, bravo | alpha, twenty | charlie, alpha
    size_t rows = reference.size();
    size_t content =
        rows * (sizeof(uint64_t) + sizeof(CandidateSet::InvalidMask) +
                sizeof(CandidateSet::NameId) + 2 * sizeof(double) +
                sizeof(uint32_t)) +
        sizeof(uint64_t) + entries * sizeof(TrajIndex) +
        names * sizeof(std::string) + (20 + 1);
    EXPECT_EQ(joined->MemoryBytes(), content);
  }
}

// Enough rows that the copies run on pool workers, not inline.
TEST(CandidateConcatenationTest, LargeBlocksCopiedOnThePoolMatchAppend) {
  std::vector<std::vector<RowSpec>> stream(9);
  for (size_t b = 0; b < stream.size(); ++b) {
    if (b % 4 == 2) continue;  // a few empty blocks between full ones
    for (TrajIndex i = 0; i < 4000; ++i) {
      TrajIndex own = static_cast<TrajIndex>(100000 + b * 10000 + i);
      stream[b].push_back({{i % 50, own},
                           {i % 50},
                           "id" + std::to_string(i % 7),
                           1.0 / (1 + i),
                           i % 5,
                           0.5 * i});
    }
  }
  CandidateSet reference;
  std::vector<CandidateSet> blocks;
  for (const auto& rows : stream) {
    blocks.push_back(BuildBlock(rows));
    for (const RowSpec& row : rows) {
      size_t r = reference.Append(row.members, row.invalid, row.target,
                                  row.similarity);
      reference.set_scores(r, row.rarity, row.effectiveness);
    }
  }
  ASSERT_GE(reference.size(), 16384u);
  auto joined = CandidateSet::Concatenate(std::move(blocks), 4);
  ASSERT_TRUE(joined.ok()) << joined.status();
  ExpectSameRows(*joined, reference);
}

// ivt(R) is a mask over member positions: a row of kMaxRepairMembers
// members, with the first, the last and every position in between marked
// in some row, comes back exactly through Append and through Concatenate.
TEST(CandidateConcatenationTest, FullWidthMasksRoundTrip) {
  std::vector<TrajIndex> members(kMaxRepairMembers);
  for (size_t k = 0; k < members.size(); ++k) {
    members[k] = static_cast<TrajIndex>(3 * k + 1);
  }
  std::vector<std::vector<TrajIndex>> invalid_sets = {
      members,
      {members.front()},
      {members.back()},
      {members[0], members[31], members[32], members[63]},
  };
  std::vector<TrajIndex> odd;
  for (size_t k = 1; k < members.size(); k += 2) odd.push_back(members[k]);
  invalid_sets.push_back(odd);

  std::vector<std::vector<RowSpec>> stream(3);
  for (size_t i = 0; i < invalid_sets.size(); ++i) {
    stream[i % 2 == 0 ? 0 : 2].push_back(
        {members, invalid_sets[i], "wide", 0.5, 1, 0.5});
  }
  CandidateSet reference;
  std::vector<std::vector<TrajIndex>> want_invalid;
  for (const auto& rows : stream) {
    for (const RowSpec& row : rows) {
      size_t r = reference.Append(row.members, row.invalid, row.target,
                                  row.similarity);
      reference.set_scores(r, row.rarity, row.effectiveness);
      want_invalid.push_back(row.invalid);
    }
  }
  ASSERT_EQ(reference.size(), want_invalid.size());
  for (size_t r = 0; r < reference.size(); ++r) {
    EXPECT_EQ(reference.members(r), members) << "row " << r;
    EXPECT_EQ(reference.invalid_members(r), want_invalid[r]) << "row " << r;
    EXPECT_EQ(reference.num_invalid(r), want_invalid[r].size());
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<CandidateSet> blocks;
    for (const auto& rows : stream) blocks.push_back(BuildBlock(rows));
    auto joined = CandidateSet::Concatenate(std::move(blocks), threads);
    ASSERT_TRUE(joined.ok()) << joined.status();
    ExpectSameRows(*joined, reference);
  }
}

TEST(CandidateConcatenationTest, OneNonEmptyBlockIsMovedAndEmptyBlocksVanish) {
  const auto stream = ConcatenationStream();
  CandidateSet reference = BuildBlock(stream[1]);
  std::vector<CandidateSet> blocks;
  blocks.push_back(CandidateSet());
  blocks.push_back(BuildBlock(stream[1]));
  blocks.push_back(CandidateSet());
  auto joined = CandidateSet::Concatenate(std::move(blocks), 4);
  ASSERT_TRUE(joined.ok()) << joined.status();
  ExpectSameRows(*joined, reference);
  EXPECT_EQ(joined->MemoryBytes(), reference.MemoryBytes());

  std::vector<CandidateSet> empty_blocks(3);
  auto nothing = CandidateSet::Concatenate(std::move(empty_blocks), 4);
  ASSERT_TRUE(nothing.ok()) << nothing.status();
  EXPECT_TRUE(nothing->empty());
  auto no_blocks = CandidateSet::Concatenate({});
  ASSERT_TRUE(no_blocks.ok()) << no_blocks.status();
  EXPECT_TRUE(no_blocks->empty());
}

// A 20-character ID is past libstdc++'s 15-character small-string buffer,
// so its payload lives on the heap and must be counted.
TEST(CandidateSetMemoryTest, CountsHeapPayloadOfLongTargetIds) {
  const std::vector<TrajIndex> members = {0, 1};
  CandidateSet short_id;
  short_id.Append(members, members, "GL21348", 0.5);
  CandidateSet long_id;
  long_id.Append(members, members, "GL21348-0123456789ab", 0.5);
  ASSERT_EQ(long_id.target_id(0).size(), 20u);
  EXPECT_GE(long_id.MemoryBytes(),
            short_id.MemoryBytes() + long_id.target_id(0).capacity() + 1);
}

TEST_F(CandidatesFixture, RarityIsMinCoverDegreeOfInvalidMembers) {
  auto candidates = Generate();
  // Recompute degrees by hand.
  std::vector<uint32_t> degree(set_.size(), 0);
  for (size_t r = 0; r < candidates.size(); ++r) {
    for (TrajIndex t : candidates.invalid_members(r)) ++degree[t];
  }
  for (size_t r = 0; r < candidates.size(); ++r) {
    uint32_t expected = UINT32_MAX;
    for (TrajIndex t : candidates.invalid_members(r)) {
      expected = std::min(expected, degree[t]);
    }
    EXPECT_EQ(candidates.rarity(r), expected);
  }
}

}  // namespace
}  // namespace idrepair

// Cross-engine differential suite: seeded synthetic datasets over several
// transition-graph shapes and error rates, run through all four engines via
// the unified Repairer interface. The core engine's selection must not move
// with thread count or grain; every engine must conserve records; the
// transition-graph engines must only ever apply joins that produce valid
// trajectories; and the streaming engine's incremental path must emit valid
// merges.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/grain.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repair_graph.h"
#include "selection_oracles.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::AllEngineNames;
using testutil::MakeEngineByName;

struct Scenario {
  std::string name;
  TransitionGraph graph;
  TrajectorySet set;
  RepairOptions options;
};

std::vector<Scenario> MakeScenarios() {
  struct Shape {
    const char* name;
    TransitionGraph graph;
    size_t theta;
    int64_t travel_lo, travel_hi;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"paper", MakePaperExampleGraph(), 5, 60, 180});
  shapes.push_back({"real_like", MakeRealLikeGraph(), 4, 60, 180});
  // Shorter legs so full chain traversals fit the η bound (see bench/fig11).
  shapes.push_back({"chain8", MakeChainGraph(8), 8, 30, 60});
  shapes.push_back({"grid", MakeGridNetwork(3, 4), 6, 30, 90});

  std::vector<Scenario> scenarios;
  uint64_t seed = 1000;
  for (auto& shape : shapes) {
    for (double error_rate : {0.05, 0.2}) {
      SyntheticConfig config;
      config.num_trajectories = 120;
      config.record_error_rate = error_rate;
      config.max_path_len = shape.theta;
      config.window_seconds = 3600;
      config.travel_median_lo = shape.travel_lo;
      config.travel_median_hi = shape.travel_hi;
      config.seed = ++seed;
      auto ds = GenerateSyntheticDataset(shape.graph, config);
      if (!ds.ok()) {
        ADD_FAILURE() << shape.name << ": " << ds.status();
        continue;
      }
      Scenario s;
      s.name = std::string(shape.name) + "_err" +
               std::to_string(static_cast<int>(error_rate * 100));
      s.graph = shape.graph;
      s.set = ds->BuildObservedTrajectories();
      s.options.theta = shape.theta;
      s.options.eta = 600;
      scenarios.push_back(std::move(s));
    }
  }
  return scenarios;
}

// Selection-grain torture: --grain 1 forces every selection
// stage (effectiveness-sort shards, repair-graph shards, invalidation
// fan-out) onto the pool even for small components, and the result must
// still match a single-thread default-grain core run byte for byte — for
// both the EMAX cover fast path and the graph-materializing DMIN path, at
// every thread count.
TEST(DifferentialTest, SelectionGrainOneIsByteIdenticalAcrossThreads) {
  for (const Scenario& s : MakeScenarios()) {
    if (s.name.find("err20") == std::string::npos) continue;
    for (SelectionAlgorithm algorithm :
         {SelectionAlgorithm::kEmax, SelectionAlgorithm::kDmin}) {
      RepairOptions reference_options = s.options;
      reference_options.selection = algorithm;
      reference_options.exec.num_threads = 1;
      auto reference = MakeEngineByName("core", s.graph, reference_options)
                           ->Repair(s.set);
      ASSERT_TRUE(reference.ok()) << reference.status();
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(s.name + " / algo" +
                     std::to_string(static_cast<int>(algorithm)) + " / t" +
                     std::to_string(threads));
        RepairOptions options = reference_options;
        options.exec.num_threads = threads;
        options.exec.grain = 1;
        auto result = MakeEngineByName("core", s.graph, options)->Repair(s.set);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->selected, reference->selected);
        EXPECT_EQ(result->rewrites, reference->rewrites);
        EXPECT_EQ(result->total_effectiveness, reference->total_effectiveness);
        EXPECT_EQ(result->stats.gr_edges, reference->stats.gr_edges);
      }
    }
  }
}

// Every engine, behind the same interface: must succeed and conserve
// records (repair only relabels, never drops or invents data).
TEST(DifferentialTest, AllEnginesConserveRecords) {
  for (const Scenario& s : MakeScenarios()) {
    for (std::string_view engine_name : AllEngineNames()) {
      SCOPED_TRACE(s.name + " / " + std::string(engine_name));
      auto engine = MakeEngineByName(engine_name, s.graph, s.options);
      ASSERT_NE(engine, nullptr);
      EXPECT_EQ(engine->name(), engine_name);
      auto result = engine->Repair(s.set);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->repaired.total_records(), s.set.total_records());
    }
  }
}

// The candidate-based engine only ever applies joins whose merged
// trajectory is valid, and its selections are compatible (pairwise
// disjoint members).
TEST(DifferentialTest, CoreAppliesOnlyValidCompatibleJoins) {
  for (const Scenario& s : MakeScenarios()) {
    SCOPED_TRACE(s.name);
    auto result = MakeEngineByName("core", s.graph, s.options)->Repair(s.set);
    ASSERT_TRUE(result.ok()) << result.status();
    std::set<TrajIndex> used;
    for (RepairIndex r : result->selected) {
      for (TrajIndex m : result->candidates.members(r)) {
        EXPECT_TRUE(used.insert(m).second) << "overlapping selection";
      }
    }
    auto idx = result->repaired.BuildIdIndex();
    for (RepairIndex r : result->selected) {
      const CandidateSet& cands = result->candidates;
      if (cands.num_members(r) < 2) continue;
      auto it = idx.find(cands.target_id(r));
      ASSERT_NE(it, idx.end()) << cands.target_id(r);
      EXPECT_TRUE(result->repaired.at(it->second).IsValid(s.graph))
          << "invalid join applied to " << cands.target_id(r);
    }
  }
}

// The streaming engine's genuine incremental path (Append/Poll/Finish):
// emitted trajectories carry every input record exactly once, and any
// emission that merged fragments of two or more observed IDs is a valid
// trajectory — streaming never applies a join batch repair would reject.
TEST(DifferentialTest, StreamingEmitsOnlyValidMerges) {
  for (const Scenario& s : MakeScenarios()) {
    SCOPED_TRACE(s.name);

    // Flatten to a time-ordered stream, remembering each point's observed
    // ID (a deque per (loc, ts) absorbs point collisions).
    std::vector<TrackingRecord> records;
    std::map<std::pair<LocationId, Timestamp>, std::deque<std::string>>
        source_ids;
    for (TrajIndex i = 0; i < s.set.size(); ++i) {
      for (const auto& p : s.set.at(i).points()) {
        records.push_back(TrackingRecord{s.set.at(i).id(), p.loc, p.ts});
      }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const TrackingRecord& a, const TrackingRecord& b) {
                       return std::tie(a.ts, a.id, a.loc) <
                              std::tie(b.ts, b.id, b.loc);
                     });
    for (const auto& r : records) {
      source_ids[{r.loc, r.ts}].push_back(r.id);
    }

    StreamingRepairer stream(s.graph, s.options);
    std::vector<Trajectory> emitted;
    Timestamp last_poll = records.empty() ? 0 : records.front().ts;
    for (const auto& r : records) {
      ASSERT_TRUE(stream.Append(r).ok());
      if (stream.watermark() - last_poll > s.options.eta) {
        auto got = stream.Poll();
        emitted.insert(emitted.end(), got.begin(), got.end());
        last_poll = stream.watermark();
      }
    }
    auto tail = stream.Finish();
    emitted.insert(emitted.end(), tail.begin(), tail.end());

    size_t emitted_records = 0;
    for (const Trajectory& t : emitted) {
      emitted_records += t.size();
      std::set<std::string> sources;
      for (const auto& p : t.points()) {
        auto it = source_ids.find({p.loc, p.ts});
        ASSERT_NE(it, source_ids.end()) << "emitted a point never appended";
        ASSERT_FALSE(it->second.empty()) << "emitted a point twice";
        sources.insert(it->second.front());
        it->second.pop_front();
      }
      if (sources.size() >= 2) {
        EXPECT_TRUE(t.IsValid(s.graph))
            << "invalid merge of " << sources.size() << " fragments under "
            << t.id();
      }
    }
    EXPECT_EQ(emitted_records, records.size());
    EXPECT_EQ(stream.pending_records(), 0u);

    // The batch adapter over the same input conserves records too.
    auto batch =
        StreamingRepairer(s.graph, s.options, StreamOptions{}).Repair(s.set);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->repaired.total_records(), s.set.total_records());
  }
}

// ------------------------------------------------ storage-layer regression

// A dense conflict workload for the storage-layer suites below: 300
// candidates over 36 trajectories in three 12-trajectory groups, each
// candidate an 8-member subset of its group. Heavy member overlap is the
// worst case for the seed's push-then-dedup adjacency build (every shared
// trajectory pushed a duplicate neighbor entry) and the best case for the
// member-set dictionary (sets repeat, invalid == members always).
CandidateSet DenseStorageInstance(size_t* num_trajs) {
  constexpr size_t kGroups = 3;
  constexpr size_t kGroupTrajs = 12;
  constexpr size_t kMembers = 8;
  *num_trajs = kGroups * kGroupTrajs;
  Rng rng(20260809);
  CandidateSet out;
  out.Reserve(300);  // production merges reserve exactly; measure that shape
  std::vector<TrajIndex> members;
  for (int i = 0; i < 300; ++i) {
    TrajIndex base = static_cast<TrajIndex>((i % kGroups) * kGroupTrajs);
    std::set<TrajIndex> picked;
    while (picked.size() < kMembers) {
      picked.insert(base + static_cast<TrajIndex>(rng.UniformIndex(kGroupTrajs)));
    }
    members.assign(picked.begin(), picked.end());
    size_t r = out.Append(members, members, "id" + std::to_string(i % 7),
                          0.5);
    out.set_scores(r, 1, 0.5);
  }
  return out;
}

// Gr's degrees and edge count must equal the O(n²) first-principles
// definition: an edge wherever two candidates' member sets intersect
// (oracle::Neighbors) — at every thread count.
TEST(StorageLayerTest, RepairGraphDegreesMatchBruteForceDefinition) {
  size_t num_trajs = 0;
  CandidateSet candidates = DenseStorageInstance(&num_trajs);

  std::vector<size_t> reference(candidates.size());
  size_t edges = 0;
  for (RepairIndex v = 0; v < candidates.size(); ++v) {
    reference[v] = oracle::Neighbors(candidates, v).size();
    edges += reference[v];
  }

  for (int threads : {1, 2, 8}) {
    ExecOptions exec;
    exec.num_threads = threads;
    exec.grain = 1;
    auto built = RepairGraph::Build(candidates, num_trajs, exec);
    ASSERT_TRUE(built.ok()) << built.status();
    for (RepairIndex v = 0; v < candidates.size(); ++v) {
      EXPECT_EQ(built->Degree(v), reference[v])
          << "threads=" << threads << " v=" << v;
    }
    EXPECT_EQ(built->num_edges(), edges / 2) << "threads=" << threads;
  }
}

namespace seedmodel {

// Simulates std::vector's geometric growth under push_back: the capacity a
// vector ends at after `pushes` appends with no reserve. The seed built its
// per-vertex adjacency lists and candidate vectors exactly this way, and
// sort+unique+erase never returns capacity.
size_t GrownCapacity(size_t pushes) {
  size_t cap = 0;
  for (size_t size = 0; size < pushes; ++size) {
    if (size == cap) cap = cap == 0 ? 1 : cap * 2;
  }
  return cap;
}

// Heap bytes of the pre-refactor candidate layout for the same logical
// content: an AoS vector of structs, each row owning two heap vectors
// (members, invalid_members) plus an SSO string and three scalar scores.
size_t CandidateBytes(const CandidateSet& c) {
  // sizeof(CandidateRepair) on this ABI: 24 (vector) + 32 (string) +
  // 24 (vector) + 8 + 4(+4 pad) + 8 = 104 bytes.
  constexpr size_t kRowBytes = 104;
  size_t bytes = GrownCapacity(c.size()) * kRowBytes;
  for (size_t r = 0; r < c.size(); ++r) {
    bytes += c.num_members(r) * sizeof(TrajIndex);   // members heap payload
    bytes += c.num_invalid(r) * sizeof(TrajIndex);   // invalid heap payload
  }
  return bytes;
}

// Heap bytes of the seed's serial Gr construction: one heap vector per
// vertex, filled by pushing one entry per *shared trajectory occurrence*
// (multiplicity included) and deduplicated afterwards — capacity keeps the
// pre-dedup high-water mark.
size_t GraphBytes(const CandidateSet& c, size_t num_trajs) {
  std::vector<std::vector<RepairIndex>> covers(num_trajs);
  for (RepairIndex r = 0; r < c.size(); ++r) {
    for (TrajIndex t : c.members(r)) covers[t].push_back(r);
  }
  std::vector<size_t> pushes(c.size(), 0);
  for (const auto& list : covers) {
    for (size_t i = 0; i < list.size(); ++i) {
      // Each co-occurrence pushed one entry into both endpoints.
      pushes[list[i]] += list.size() - 1;
    }
  }
  size_t bytes = c.size() * 24;  // per-vertex vector headers (adj_ is exact)
  for (size_t p : pushes) bytes += GrownCapacity(p) * sizeof(RepairIndex);
  // The covers themselves were transient in the seed; not charged.
  return bytes;
}

}  // namespace seedmodel

// The headline storage win: on the dense instance, the columnar CSR
// candidate set plus the repair graph (its cover index and degrees; Gr's
// edges are never stored) must occupy at least 4x fewer bytes than the
// seed's AoS-plus-adjacency-vectors layout holding the same logical
// content. Guards the storage layer against regressing into per-row or
// per-edge allocations.
TEST(StorageLayerTest, CsrLayoutsCutCandidatePlusGraphBytes4x) {
  size_t num_trajs = 0;
  CandidateSet candidates = DenseStorageInstance(&num_trajs);
  ExecOptions exec;
  exec.num_threads = 1;
  auto built = RepairGraph::Build(candidates, num_trajs, exec);
  ASSERT_TRUE(built.ok()) << built.status();

  size_t seed_bytes = seedmodel::CandidateBytes(candidates) +
                      seedmodel::GraphBytes(candidates, num_trajs);
  size_t actual_bytes = candidates.MemoryBytes() + built->MemoryBytes();
  ASSERT_GT(actual_bytes, 0u);
  double ratio = static_cast<double>(seed_bytes) /
                 static_cast<double>(actual_bytes);
  EXPECT_GE(ratio, 4.0) << "seed layout " << seed_bytes << " B vs current "
                        << actual_bytes << " B (" << ratio << "x)";
  // Sanity on the instance shape: it really is one dense conflict workload.
  EXPECT_GT(built->num_edges(), 10000u);
}

// GenerateCandidates concatenates its per-block outputs, so a target name
// used by several blocks is stored once per block. On one dense chain
// component at grain 1 (a block per seed, the most blocks possible) the
// candidate set may take at most 10% more bytes than the same generation
// as one single block. Rows own their member lists at every grain: the
// arena holds exactly Σ|members|, each member once.
TEST(StorageLayerTest, BlockConcatenationCostsAtMostTenPercentOverOneBlock) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 210;
  config.window_seconds = 2400;  // dense: one chain component under η
  config.max_path_len = 4;
  config.seed = 4242;
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

  auto generate = [&](int threads, size_t grain) {
    RepairOptions o = options;
    o.exec.num_threads = threads;
    o.exec.grain = grain;
    TrajectoryGraph gm(set, pred, o);
    auto generated =
        GenerateCandidates(set, gm, pred, o, similarity, is_valid);
    EXPECT_TRUE(generated.ok()) << generated.status();
    return std::move(generated).value();
  };
  auto ratio = [](size_t a, size_t b) {
    return static_cast<double>(a) / static_cast<double>(b);
  };
  CandidateSet one_block = generate(1, kGrainAuto);
  CandidateSet per_seed = generate(4, 1);
  ASSERT_EQ(per_seed.size(), one_block.size());
  ASSERT_GT(one_block.size(), 1000u) << "workload too easy to be a test";
  EXPECT_LE(ratio(per_seed.MemoryBytes(), one_block.MemoryBytes()), 1.10)
      << per_seed.MemoryBytes() << " B at grain 1 vs "
      << one_block.MemoryBytes() << " B as one block";
  for (const CandidateSet* c : {&one_block, &per_seed}) {
    size_t entries = 0;
    for (size_t r = 0; r < c->size(); ++r) entries += c->num_members(r);
    EXPECT_EQ(c->member_entries(), entries);
  }
}

}  // namespace
}  // namespace idrepair

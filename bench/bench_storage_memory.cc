// Storage-layer memory benchmark: measures the resident cost of the hot
// data-plane structures behind the view-based API — the columnar
// CandidateSet (members in one CSR arena, ivt(R) a bitmask over each row's
// members) and the RepairGraph (Gr held as its per-trajectory cover lists
// plus one degree per repair; its edges are never stored) — and compares
// against a model of the seed's AoS-plus-adjacency-vectors layout holding
// the same logical content (the model mirrors tests/differential_test.cc's
// seedmodel).
//
// Two instances:
//  - "dense":     a scripted grouped-conflict workload where the seed
//                 layout's pre-dedup multiplicity pushes dominate; this is
//                 the instance the >=4x acceptance ratio is defined on.
//  - "synthetic": an end-to-end repair on a generated dataset, so the
//                 reported peak RSS covers the whole pipeline, not just
//                 the final structures.
//
// Columns: cands and edges count Gr's vertices and the conflict edges it
// represents; cand_KB and gr_KB are the heap bytes of the candidate set
// and of the RepairGraph (cover index + degrees); B/edge is gr_KB per
// represented edge, well under one byte on dense instances because the
// cover lists grow with membership, not with edges; seed_KB is the seed
// model and ratio seed_KB / (cand_KB + gr_KB).
//
// The JSON "memory" block (bench_util.h) carries the gate metrics for the
// ci.sh bench-smoke stage: peak_rss_bytes, candidate/graph bytes,
// bytes-per-edge, and the seed-model reduction ratio. The table's cands
// and edges columns are pure functions of the seeds; the same stage holds
// them exactly to the committed baseline rows.

#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repair_graph.h"
#include "repair/repairer.h"

using namespace idrepair;
using namespace idrepair::benchutil;

namespace {

// ---------------------------------------------------------------- seed model
// Mirror of tests/differential_test.cc seedmodel: what the pre-refactor
// layout (AoS candidate rows owning two heap vectors each, one adjacency
// vector per Gr vertex filled with multiplicity then deduplicated) would
// allocate for the same logical content.

size_t GrownCapacity(size_t pushes) {
  size_t cap = 0;
  for (size_t size = 0; size < pushes; ++size) {
    if (size == cap) cap = cap == 0 ? 1 : cap * 2;
  }
  return cap;
}

size_t SeedCandidateBytes(const CandidateSet& c) {
  constexpr size_t kRowBytes = 104;  // 24 + 32 + 24 + 8 + 4(+4) + 8 on x86-64
  size_t bytes = GrownCapacity(c.size()) * kRowBytes;
  for (size_t r = 0; r < c.size(); ++r) {
    bytes += c.num_members(r) * sizeof(TrajIndex);
    bytes += c.num_invalid(r) * sizeof(TrajIndex);
  }
  return bytes;
}

size_t SeedGraphBytes(const CandidateSet& c, size_t num_trajs) {
  std::vector<std::vector<RepairIndex>> covers(num_trajs);
  for (RepairIndex r = 0; r < c.size(); ++r) {
    for (TrajIndex t : c.members(r)) covers[t].push_back(r);
  }
  std::vector<size_t> pushes(c.size(), 0);
  for (const auto& list : covers) {
    for (size_t i = 0; i < list.size(); ++i) {
      pushes[list[i]] += list.size() - 1;
    }
  }
  size_t bytes = c.size() * 24;  // per-vertex vector headers
  for (size_t p : pushes) bytes += GrownCapacity(p) * sizeof(RepairIndex);
  return bytes;
}

// ------------------------------------------------------------ dense instance
// Same shape as the differential suite's DenseStorageInstance, scaled up:
// grouped conflicts so every pair inside a group shares members.

CandidateSet DenseInstance(size_t* num_trajs) {
  constexpr size_t kGroups = 4;
  constexpr size_t kGroupTrajs = 12;
  constexpr size_t kMembers = 8;
  constexpr size_t kCandidates = 800;
  *num_trajs = kGroups * kGroupTrajs;
  Rng rng(20260809);
  CandidateSet out;
  out.Reserve(kCandidates);
  std::vector<TrajIndex> members;
  for (size_t i = 0; i < kCandidates; ++i) {
    TrajIndex base = static_cast<TrajIndex>((i % kGroups) * kGroupTrajs);
    std::set<TrajIndex> picked;
    while (picked.size() < kMembers) {
      picked.insert(base +
                    static_cast<TrajIndex>(rng.UniformIndex(kGroupTrajs)));
    }
    members.assign(picked.begin(), picked.end());
    size_t r = out.Append(members, members,
                          "id" + std::to_string(i % 7), 0.5);
    out.set_scores(r, 1, 0.5);
  }
  return out;
}

struct Measurement {
  size_t candidates = 0;
  size_t edges = 0;
  size_t candidate_bytes = 0;
  size_t graph_bytes = 0;
  size_t seed_bytes = 0;
};

Measurement Measure(const CandidateSet& candidates, size_t num_trajs) {
  ExecOptions exec;
  exec.num_threads = 1;
  auto built = RepairGraph::Build(candidates, num_trajs, exec);
  if (!built.ok()) {
    std::cerr << "graph build failed: " << built.status() << "\n";
    std::exit(1);
  }
  Measurement m;
  m.candidates = candidates.size();
  m.edges = built->num_edges();
  m.candidate_bytes = candidates.MemoryBytes();
  m.graph_bytes = built->MemoryBytes();
  m.seed_bytes =
      SeedCandidateBytes(candidates) + SeedGraphBytes(candidates, num_trajs);
  return m;
}

std::string FmtKb(size_t bytes) {
  return ToFixed(static_cast<double>(bytes) / 1024.0, 1);
}

}  // namespace

int main() {
  BenchReport report("storage_memory");
  report.Title("Storage layer: candidate + Gr memory vs seed layout");
  report.Header({"instance", "cands", "edges", "cand_KB", "gr_KB", "B/edge",
                 "seed_KB", "ratio"});

  // Dense scripted instance — the acceptance workload.
  size_t dense_trajs = 0;
  CandidateSet dense = DenseInstance(&dense_trajs);
  Measurement dm = Measure(dense, dense_trajs);

  // End-to-end synthetic instance: real generation + repair, measured on
  // the result's candidate set and a rebuilt Gr.
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 120;
  config.max_path_len = 4;
  config.window_seconds = 3600;
  config.record_error_rate = 0.2;
  config.seed = 601;
  auto ds = GenerateSyntheticDataset(graph, config);
  if (!ds.ok()) {
    std::cerr << "generation failed: " << ds.status() << "\n";
    return 1;
  }
  TrajectorySet set = ds->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.zeta = 4;
  options.lambda = 0.5;
  IdRepairer repairer(ds->graph, options);
  auto result = repairer.Repair(set);
  if (!result.ok()) {
    std::cerr << "repair failed: " << result.status() << "\n";
    return 1;
  }
  Measurement sm = Measure(result->candidates, set.size());

  auto emit = [&](const std::string& name, const Measurement& m) {
    size_t actual = m.candidate_bytes + m.graph_bytes;
    double ratio = actual > 0 ? static_cast<double>(m.seed_bytes) /
                                    static_cast<double>(actual)
                              : 0.0;
    double per_edge = m.edges > 0 ? static_cast<double>(m.graph_bytes) /
                                        static_cast<double>(m.edges)
                                  : 0.0;
    report.Row({name, std::to_string(m.candidates), std::to_string(m.edges),
                FmtKb(m.candidate_bytes), FmtKb(m.graph_bytes),
                Fmt(per_edge, 1), FmtKb(m.seed_bytes), FmtRatio(ratio)});
    return std::pair<double, double>(ratio, per_edge);
  };

  auto [dense_ratio, dense_per_edge] = emit("dense", dm);
  emit("synthetic", sm);

  // Gate metrics for scripts/ci.sh bench-smoke (peak_rss_bytes is added by
  // BenchReport itself). All are "lower or equal is fine" quantities.
  report.Memory("dense_candidate_bytes", static_cast<double>(dm.candidate_bytes));
  report.Memory("dense_gr_bytes", static_cast<double>(dm.graph_bytes));
  report.Memory("dense_gr_bytes_per_edge", dense_per_edge);
  report.Memory("synthetic_total_bytes",
                static_cast<double>(sm.candidate_bytes + sm.graph_bytes));

  if (dense_ratio < 4.0) {
    std::cerr << "FAIL: dense reduction ratio " << dense_ratio
              << "x below the 4x storage-layer floor\n";
    return 1;
  }
  std::cout << "\ndense reduction vs seed layout: " << FmtRatio(dense_ratio)
            << "   (floor: 4x)\n";
  return 0;
}

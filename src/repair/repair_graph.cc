#include "repair/repair_graph.h"

#include <algorithm>
#include <utility>

#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Per-trajectory cover index: the candidates whose joinable subset holds
/// trajectory t are entries[offsets[t] .. offsets[t+1]), ascending.
struct CoverIndex {
  std::vector<uint64_t> offsets;
  std::vector<RepairIndex> entries;

  Span<const RepairIndex> Cover(TrajIndex t) const {
    return Span<const RepairIndex>(entries.data() + offsets[t],
                                   offsets[t + 1] - offsets[t]);
  }
};

/// Counting pass sizes each trajectory's slot, then a fill pass appends
/// candidates in ascending order (the row scan is ascending, so each list
/// comes out sorted). Linear in total membership; serial.
CoverIndex BuildCoverIndex(const CandidateSet& candidates, size_t num_trajs) {
  CoverIndex cover;
  cover.offsets.assign(num_trajs + 1, 0);
  for (size_t r = 0; r < candidates.size(); ++r) {
    for (TrajIndex t : candidates.members(r)) ++cover.offsets[t + 1];
  }
  for (size_t t = 0; t < num_trajs; ++t) {
    cover.offsets[t + 1] += cover.offsets[t];
  }
  cover.entries.resize(cover.offsets[num_trajs]);
  std::vector<uint64_t> cursor(cover.offsets.begin(), cover.offsets.end() - 1);
  for (size_t r = 0; r < candidates.size(); ++r) {
    for (TrajIndex t : candidates.members(r)) {
      cover.entries[cursor[t]++] = static_cast<RepairIndex>(r);
    }
  }
  return cover;
}

/// Fills the neighbor lists for vertices [begin, end) into `arena`, writing
/// each vertex's degree into `degree`. N(v) is the sorted-unique union of
/// the cover lists over v's members, minus v itself — a pure function of
/// (candidates, cover, v), so the output is independent of how the vertex
/// range is split. `scratch` is caller-owned so one buffer serves a whole
/// block.
void BuildVertexRange(const CandidateSet& candidates, const CoverIndex& cover,
                      size_t begin, size_t end,
                      std::vector<RepairIndex>& arena,
                      std::vector<uint32_t>& degree,
                      std::vector<RepairIndex>& scratch) {
  for (size_t v = begin; v < end; ++v) {
    scratch.clear();
    for (TrajIndex t : candidates.members(v)) {
      for (RepairIndex r : cover.Cover(t)) {
        if (r != static_cast<RepairIndex>(v)) scratch.push_back(r);
      }
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    degree[v] = static_cast<uint32_t>(scratch.size());
    arena.insert(arena.end(), scratch.begin(), scratch.end());
  }
}

}  // namespace

Result<RepairGraph> RepairGraph::Build(const CandidateSet& candidates,
                                       size_t num_trajs,
                                       const ExecOptions& exec) {
  RepairGraph g;
  g.num_trajs_ = num_trajs;
  const CoverIndex cover = BuildCoverIndex(candidates, num_trajs);

  const int threads = exec.ResolvedThreads();
  const size_t n = candidates.size();
  const size_t block = ResolveGrain(exec.grain, n, threads,
                                    kSelectionGrainCalibration);
  std::vector<uint32_t> degree(n, 0);

  // Each block owns a contiguous vertex range and *pulls* its neighbor
  // lists from the shared (read-only) cover index into a private arena;
  // the arenas concatenate in block order, which is vertex order (a single
  // arena is moved, not copied).
  std::vector<std::vector<RepairIndex>> slot_arena((n + block - 1) / block);
  IDREPAIR_RETURN_NOT_OK(ParallelFor(
      &ThreadPool::Default(), n, threads, block,
      [&](size_t b, size_t begin, size_t end) {
        IDREPAIR_FAULT_INJECT("repair.selection.shard");
        obs::TraceSpan span("selection.gr.shard", b);
        // Sort scratch that keeps its capacity across blocks and Build
        // calls and dies with its thread; BuildVertexRange clears it per
        // vertex, so what an earlier block left behind is never read.
        thread_local std::vector<RepairIndex> scratch;
        BuildVertexRange(candidates, cover, begin, end, slot_arena[b],
                         degree, scratch);
        return Status::OK();
      }));
  if (slot_arena.size() == 1) {
    g.neighbors_ = std::move(slot_arena.front());
  } else {
    size_t total = 0;
    for (const auto& arena : slot_arena) total += arena.size();
    g.neighbors_.reserve(total);
    for (const auto& arena : slot_arena) {
      g.neighbors_.insert(g.neighbors_.end(), arena.begin(), arena.end());
    }
  }

  g.offsets_.assign(candidates.size() + 1, 0);
  for (size_t v = 0; v < candidates.size(); ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + degree[v];
    g.num_edges_ += degree[v];
  }
  g.num_edges_ /= 2;
  return g;
}

}  // namespace idrepair

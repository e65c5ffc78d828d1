#ifndef IDREPAIR_REPAIR_REPAIR_GRAPH_H_
#define IDREPAIR_REPAIR_REPAIR_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "exec/exec_options.h"
#include "repair/candidates.h"

namespace idrepair {

/// Index of a candidate repair within its generation batch.
using RepairIndex = uint32_t;

/// Per-trajectory cover index: the candidates whose joinable subset holds
/// trajectory t are entries[offsets[t] .. offsets[t+1]), ascending. Two
/// repairs conflict exactly when they share a trajectory, so these lists
/// hold Gr without its edges.
struct CoverIndex {
  std::vector<uint64_t> offsets;
  std::vector<RepairIndex> entries;

  /// A counting pass sizes each trajectory's slot, then a fill pass
  /// appends candidates in ascending order. Linear in total membership;
  /// serial.
  static CoverIndex Build(const CandidateSet& candidates, size_t num_trajs);

  Span<const RepairIndex> Cover(TrajIndex t) const {
    return Span<const RepairIndex>(entries.data() + offsets[t],
                                   offsets[t + 1] - offsets[t]);
  }
};

/// Gr's vertex degrees without its edges: the cover index plus, for every
/// repair v, degree[v] = |∪ over v's members t of Cover(t)| − 1, the number
/// of other repairs that share a trajectory with v (Gr's degree exactly).
/// What DMIN and DMAX read (SelectByDegree).
struct ConflictDegrees {
  CoverIndex cover;
  std::vector<uint32_t> degree;
  size_t num_edges = 0;  // Σ degree / 2: Gr's edge count

  /// Two exact methods, whichever has the smaller work bound: a serial
  /// walk over the member subsets that two or more repairs share
  /// (inclusion–exclusion, at most |M_v|·2^|M_v| steps per repair), or a
  /// stamp pass that reads every cover list of each repair's members
  /// (Σ |Cover(t)|² steps), split into blocks over the exec pool; the walk
  /// is taken when its bound times the thread count is no larger. Either
  /// evaluates "repair.selection.shard" once per block (the walk is one
  /// block); each repair's degree is a pure function of the candidates, so
  /// the result is byte-identical at any thread count and grain.
  static Result<ConflictDegrees> Count(const CandidateSet& candidates,
                                       size_t num_trajs,
                                       const ExecOptions& exec);
};

/// The repair graph Gr (§3.3): one vertex per candidate repair, an
/// undirected edge wherever two repairs are *incompatible*, i.e. their
/// joinable subsets share a trajectory. Selecting compatible repairs is then
/// an independent-set problem on this graph.
///
/// Storage is compressed sparse row (DESIGN.md §9): all neighbor lists live
/// in one flat arena indexed by a per-vertex offset table, instead of one
/// heap vector per vertex. Neighbors() returns a Span view into the arena —
/// valid for the graph's lifetime, since a built graph is immutable.
class RepairGraph {
 public:
  /// Builds Gr from the candidate set with the adjacency pass split into
  /// blocks over the exec pool. Block boundaries never affect the result:
  /// each block derives its vertex range's neighbor list as the
  /// sorted-unique union of a shared (read-only) CoverIndex over the
  /// vertex's members — built once per call and dropped when Build
  /// returns — so the graph is byte-identical at any thread count; a single
  /// block runs inline on the calling thread. Evaluates the
  /// "repair.selection.shard" failpoint once per block, so a non-empty set
  /// hits it at least once at every thread count.
  static Result<RepairGraph> Build(const CandidateSet& candidates,
                                   size_t num_trajs, const ExecOptions& exec);

  size_t num_vertices() const { return offsets_.size() - 1; }
  size_t num_edges() const { return num_edges_; }

  /// Sorted list of repairs incompatible with `v`. View into the CSR arena,
  /// valid for the graph's lifetime.
  Span<const RepairIndex> Neighbors(RepairIndex v) const {
    return Span<const RepairIndex>(neighbors_.data() + offsets_[v],
                                   offsets_[v + 1] - offsets_[v]);
  }

  size_t Degree(RepairIndex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Trajectories the candidates' members index into (Build's num_trajs).
  size_t num_trajs() const { return num_trajs_; }

  /// Heap bytes of the adjacency CSR.
  size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(uint64_t) +
           neighbors_.capacity() * sizeof(RepairIndex);
  }

 private:
  RepairGraph() = default;

  // Adjacency CSR: neighbors of v are neighbors_[offsets_[v] ..
  // offsets_[v+1]), sorted ascending.
  std::vector<uint64_t> offsets_ = {0};
  std::vector<RepairIndex> neighbors_;
  size_t num_trajs_ = 0;
  size_t num_edges_ = 0;
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_REPAIR_GRAPH_H_

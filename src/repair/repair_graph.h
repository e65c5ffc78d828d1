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

/// The repair graph Gr (§3.3): one vertex per candidate repair, an
/// undirected edge wherever two repairs are *incompatible*, i.e. their
/// joinable subsets share a trajectory. Gr is held as its cover lists: two
/// repairs conflict exactly when they sit in one trajectory's cover list,
/// so the edges are never materialised. Beside the cover index it holds
/// each vertex's degree, |∪ over v's members t of Cover(t)| − 1 (Gr's
/// degree exactly), and the edge count Σ degree / 2. DMIN and DMAX commit
/// from the degrees, exact selection searches set packings over the cover
/// lists (DESIGN.md §3).
class RepairGraph {
 public:
  /// Builds the cover index, then counts every degree by one of two exact
  /// methods, whichever has the smaller work bound: a serial walk over the
  /// member subsets that two or more repairs share (inclusion–exclusion,
  /// at most |M_v|·2^|M_v| steps per repair), or a stamp pass that reads
  /// every cover list of each repair's members (Σ |Cover(t)|² steps),
  /// split into blocks over the exec pool; the walk is taken when its
  /// bound times the thread count is no larger. Either evaluates
  /// "repair.selection.shard" once per block (the walk is one block), so a
  /// non-empty set hits it at least once at every thread count; each
  /// degree is a pure function of the candidates, so the graph is
  /// byte-identical at any thread count and grain.
  static Result<RepairGraph> Build(const CandidateSet& candidates,
                                   size_t num_trajs, const ExecOptions& exec);

  size_t num_vertices() const { return degree_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Number of repairs incompatible with `v`.
  size_t Degree(RepairIndex v) const { return degree_[v]; }
  const std::vector<uint32_t>& degrees() const { return degree_; }

  /// The candidates holding each trajectory, ascending.
  const CoverIndex& cover() const { return cover_; }

  /// Trajectories the candidates' members index into (Build's num_trajs).
  size_t num_trajs() const { return cover_.offsets.size() - 1; }

  /// Heap bytes of the cover index plus the degrees.
  size_t MemoryBytes() const {
    return cover_.offsets.capacity() * sizeof(uint64_t) +
           cover_.entries.capacity() * sizeof(RepairIndex) +
           degree_.capacity() * sizeof(uint32_t);
  }

 private:
  RepairGraph() = default;

  CoverIndex cover_;
  std::vector<uint32_t> degree_;
  size_t num_edges_ = 0;
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_REPAIR_GRAPH_H_

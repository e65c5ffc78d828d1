#ifndef IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_
#define IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "traj/tracking_record.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// Length-Indexed Grids (LIG, §5.1 of the paper): a three-dimensional index
/// over (trajectory length, start time, end time) that prunes candidate
/// pairs before the cex predicate runs. Given a probe trajectory Tk, only
/// trajectories with |Tu| <= θ − |Tk| and with both start and end times in
/// [Tk.end − η, Tk.start + η] can share a joinable subset with Tk.
///
/// Implementation notes: time is discretized into fixed-size bins of
/// `time_bin` seconds; because an indexed trajectory's span never exceeds η
/// (longer ones cannot join anything and are skipped), the (start, end) grid
/// is stored as a diagonal band, keeping memory linear in the time window
/// rather than quadratic. The index is an over-approximation — cex re-checks
/// the exact bounds — but never misses a feasible candidate. A built index
/// is immutable: one flat CSR arena, built once per trajectory set.
class LengthIndexedGrids {
 public:
  struct Options {
    /// Maximum valid-trajectory length θ (records).
    size_t theta = 8;
    /// Maximum valid-trajectory time span η (seconds).
    Timestamp eta = 600;
    /// Grid bin width tb (seconds).
    Timestamp time_bin = 60;
  };

  /// The complete serializable state of a built index. Together with the
  /// indexed TrajectorySet this reconstructs the index exactly — the
  /// snapshot format persists Parts so daemon startup is load-not-rebuild.
  struct Parts {
    Options options;
    Timestamp base_time = 0;
    uint64_t num_bins = 0;
    uint64_t band = 0;
    uint64_t num_indexed = 0;
    std::vector<uint32_t> cell_offsets;
    std::vector<TrajIndex> cell_entries;
  };

  /// Builds the index over `set` in Θ(|set|).
  LengthIndexedGrids(const TrajectorySet& set, const Options& options);

  /// Copies out the serializable state. Building a fresh index over the
  /// same set with parts.options yields byte-identical Parts (the CSR fill
  /// is deterministic), which the snapshot round-trip tests rely on.
  Parts ToParts() const;

  /// Reconstructs an index over `set` from previously captured Parts,
  /// validating every structural invariant (offset table shape, monotone
  /// offsets, entry bounds, the num_indexed == entries count identity).
  /// `set` must outlive the returned index, exactly as for the building
  /// constructor.
  static Result<std::unique_ptr<LengthIndexedGrids>> FromParts(
      const TrajectorySet& set, Parts parts);

  /// Appends to `out` all indexed trajectories (other than `k` itself) that
  /// satisfy the grid-level length and time-window criteria for pairing
  /// with trajectory `k`. A superset of the exact answer.
  void CollectCandidates(TrajIndex k, std::vector<TrajIndex>* out) const;

  /// CollectCandidates for an explicit probe geometry instead of a set
  /// member: appends every indexed entry whose bucket passes the grid-level
  /// length and time-window criteria against a probe of `length` records
  /// spanning [start, end]. Does not self-exclude (a probe that is itself
  /// indexed appears in its own answer).
  void CollectCandidatesSpan(size_t length, Timestamp start, Timestamp end,
                             std::vector<TrajIndex>* out) const;

  /// Number of trajectories actually indexed (those with length <= θ and
  /// span <= η).
  size_t num_indexed() const { return num_indexed_; }

  /// The trajectories of length `length` starting in bin `start_bin` and
  /// ending in bin `start_bin + span_off`, ascending. A view into the
  /// index's storage, valid for the index's lifetime (DESIGN.md §9).
  Span<const TrajIndex> Bucket(size_t length, size_t start_bin,
                               size_t span_off) const;

  /// Heap bytes of the index storage (the CSR arena).
  size_t MemoryBytes() const;

  const Options& options() const { return options_; }

  /// The set this index was built over. Identity matters: a prebuilt index
  /// is only valid for probes into this exact object (see
  /// RepairOptions::resident_lig).
  const TrajectorySet& indexed_set() const { return set_; }

 private:
  /// FromParts' trusting constructor — validation happens in the factory.
  LengthIndexedGrids(const TrajectorySet& set, Parts parts);

  size_t CellIndex(size_t length, size_t start_bin, size_t span_off) const {
    return ((length - 1) * num_bins_ + start_bin) * band_ + span_off;
  }

  /// The cell a trajectory indexes into, or SIZE_MAX when it is skipped
  /// (too long, span exceeds η, or straddles the band).
  size_t CellFor(const Trajectory& t) const;

  const TrajectorySet& set_;
  Options options_;
  Timestamp base_time_ = 0;
  size_t num_bins_ = 0;
  size_t band_ = 0;  // max (end_bin - start_bin) + 1 for indexed spans
  size_t num_indexed_ = 0;
  // Grid buckets in CSR form: the trajectories of cell c occupy
  // cell_entries_[cell_offsets_[c] .. cell_offsets_[c+1]). One flat arena
  // replaces a vector-of-vectors whose headers alone dominated the index
  // footprint (most cells are empty).
  std::vector<uint32_t> cell_offsets_;
  std::vector<TrajIndex> cell_entries_;
};

}  // namespace idrepair

#endif  // IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_

#ifndef IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_
#define IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_

#include <cstdint>
#include <utility>
#include <vector>

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
/// is a diagonal band: a cell is (length, start bin, end − start bin
/// offset). Only non-empty cells exist — the index is one vector of
/// (cell key, trajectory) pairs sorted by key — so memory is linear in the
/// indexed trajectories and independent of the time span. The index is an
/// over-approximation — cex re-checks the exact bounds — but never misses a
/// feasible candidate. It is immutable and built per trajectory set: every
/// Gm build makes its own.
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

  /// Builds the index over `set` in O(|set| log |set|). `set` must outlive
  /// the index.
  LengthIndexedGrids(const TrajectorySet& set, const Options& options);

  /// Appends to `out` all indexed trajectories (other than `k` itself) that
  /// satisfy the grid-level length and time-window criteria for pairing
  /// with trajectory `k`, in (length, start bin, span offset, index) order.
  /// A superset of the exact answer.
  void CollectCandidates(TrajIndex k, std::vector<TrajIndex>* out) const;

  /// Number of trajectories actually indexed (those with length <= θ and
  /// span <= η).
  size_t num_indexed() const { return entries_.size(); }

 private:
  size_t CellKey(size_t length, size_t start_bin, size_t span_off) const {
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
  // (cell key, trajectory) for every indexed trajectory, ascending.
  std::vector<std::pair<size_t, TrajIndex>> entries_;
};

}  // namespace idrepair

#endif  // IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_

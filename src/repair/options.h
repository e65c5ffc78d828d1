#ifndef IDREPAIR_REPAIR_OPTIONS_H_
#define IDREPAIR_REPAIR_OPTIONS_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/exec_options.h"
#include "sim/similarity.h"
#include "traj/tracking_record.h"

namespace idrepair {

/// Which heuristic picks the compatible repair set from the repair graph
/// (§4.2, §6.5.1). kExact solves Eq. 4 optimally as a set packing over the
/// cover lists (exponential worst case); it honors deadline_ms, returning
/// the best packing found so far, which starts from EMAX's selection, once
/// the budget runs out.
enum class SelectionAlgorithm {
  kEmax,   // maximum-effectiveness first (Algorithm 3; the paper's choice)
  kDmin,   // minimum-degree first
  kDmax,   // maximum-degree first
  kExact,  // branch-and-bound optimum of Eq. (4)
};

/// How rarity aggregates the degrees of a repair's invalid trajectories.
enum class RarityAggregation {
  kMin,  // Eq. (2) as written
  kMax,  // alternative consistent with the paper's worked example (see
         // DESIGN.md §3); exposed for the ablation bench
};

/// Most trajectories one candidate repair can join: CandidateSet keeps
/// ivt(R) as a 64-bit mask over the positions of jns(R). A joinable subset
/// holds at most min(ζ, θ) trajectories (each has at least one record and
/// the merged trajectory at most θ), so Validate() holds that bound here.
inline constexpr size_t kMaxRepairMembers = 64;

/// Tuning knobs of the two-phase repair paradigm. Defaults are the paper's
/// synthetic-dataset defaults (§6.3); the real-dataset experiments use
/// θ=4, η=600, ζ=4, λ=0.5 (§6.1.1).
///
/// A plain value: assign the fields, then call Validate() to surface
/// configuration errors before the first Repair() call. It holds only what
/// changes what a repair computes or how it is scheduled; observability is
/// process-wide state that the caller switches on (obs::SetEnabled).
///
/// ### Ownership contract
/// RepairOptions never owns pointed-to collaborators. In particular,
/// `similarity` (when non-null) must outlive every repairer constructed
/// from these options — repairers keep the pointer, not a copy. This is
/// the single authoritative statement of that contract; call sites that
/// allocate a metric (e.g. the CLI) keep it alive for the whole run.
struct RepairOptions {
  /// θ — maximum records in a valid trajectory (§2.3).
  size_t theta = 8;
  /// η — maximum time span of a valid trajectory, seconds (§2.3).
  Timestamp eta = 600;
  /// ζ — maximum trajectories in a joinable subset (§2.3).
  size_t zeta = 4;
  /// λ — similarity/potency trade-off in Eq. (3), in (0, 1].
  double lambda = 0.5;

  /// Grid bin width of the LIG index, seconds.
  Timestamp time_bin = 60;
  /// Use the Length-Indexed Grids index when building the trajectory graph
  /// (§5.1). Off = exhaustive pairwise cex.
  bool use_lig = true;
  /// Use minimum-cover-prefix pruning during clique generation (§5.2).
  bool use_mcp_pruning = true;

  /// Effectiveness logarithm base is rarity + this offset (Eq. (3) uses 1).
  uint32_t rarity_base_offset = 1;
  /// Degree aggregation for rarity.
  RarityAggregation rarity_aggregation = RarityAggregation::kMin;

  /// Repair-selection heuristic.
  SelectionAlgorithm selection = SelectionAlgorithm::kEmax;

  /// ID similarity metric for Eq. (1)/(5). Not owned (see the ownership
  /// contract above); nullptr selects the paper's normalized edit
  /// similarity. Implementations must return values in [0, 1]; debug
  /// builds verify this at every use.
  const IdSimilarity* similarity = nullptr;

  /// Parallel-execution knobs (thread count, task granularity), consumed
  /// by every engine: trajectory-graph sharding, candidate generation,
  /// selection, streaming flushes.
  ExecOptions exec;

  /// Wall-clock budget for one Repair() call, milliseconds; 0 disables.
  /// When the budget runs out mid-run the engine degrades gracefully: it
  /// stops starting new work at the next safe boundary (phase, selection
  /// commit, exact search node, or replay batch), passes the unprocessed remainder through
  /// unrepaired, and returns a well-formed partial RepairResult whose
  /// `completion` Status is DeadlineExceeded (see repairer.h).
  int64_t deadline_ms = 0;

  /// Rejects nonsensical parameter combinations.
  Status Validate() const {
    if (theta == 0) return Status::InvalidArgument("theta must be >= 1");
    if (zeta == 0) return Status::InvalidArgument("zeta must be >= 1");
    if (std::min(zeta, theta) > kMaxRepairMembers) {
      return Status::InvalidArgument(
          "min(zeta=" + std::to_string(zeta) + ", theta=" +
          std::to_string(theta) + ") exceeds the " +
          std::to_string(kMaxRepairMembers) + " trajectories one repair "
          "can join");
    }
    if (eta < 0) return Status::InvalidArgument("eta must be >= 0");
    if (lambda <= 0.0 || lambda > 1.0) {
      return Status::InvalidArgument("lambda must be in (0, 1]");
    }
    if (time_bin <= 0) {
      return Status::InvalidArgument("time_bin must be positive");
    }
    if (rarity_base_offset == 0) {
      return Status::InvalidArgument(
          "rarity_base_offset must be >= 1 (log base must exceed 1)");
    }
    if (deadline_ms < 0) {
      return Status::InvalidArgument("deadline_ms must be >= 0");
    }
    IDREPAIR_RETURN_NOT_OK(exec.Validate());
    return Status::OK();
  }
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_OPTIONS_H_

#ifndef IDREPAIR_REPAIR_CANDIDATES_H_
#define IDREPAIR_REPAIR_CANDIDATES_H_

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/default_init_vector.h"
#include "common/span.h"
#include "repair/cliques.h"
#include "repair/options.h"
#include "repair/predicates.h"
#include "repair/trajectory_graph.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// The candidate repairs R = (T', r) of Definition 2.6 in columnar form:
/// one column per field, indexed by RepairIndex-compatible row number.
/// jns(R) is stored as one CSR: a uint64 offset per row plus one flat
/// TrajIndex arena, row r's members ascending at [offsets[r], offsets[r+1]).
/// ivt(R) ⊆ jns(R), so it is a per-row bitmask over the positions of the
/// row's members (bit k set iff members(r)[k] is invalid) — the storage
/// contract is DESIGN.md §9. Rows never share member lists: generation
/// emits each qualified clique exactly once.
///
/// The target column is a 4-byte NameId per row into a per-set table of
/// target names: Eq. (5) always picks a member's ID, so a set holds each
/// distinct target once (per generation block) instead of one string per
/// row.
///
/// members() returns a Span view into the arena; views are invalidated by
/// Append/Concatenate (never by score fills), so hold no view across a
/// mutation.
class CandidateSet {
 public:
  using NameId = uint32_t;
  /// Bit k marks members(r)[k] as invalid; kMaxRepairMembers bits wide.
  using InvalidMask = uint64_t;
  static_assert(sizeof(InvalidMask) * 8 == kMaxRepairMembers);

  CandidateSet() = default;

  // Movable, not copyable: the pipeline only ever hands the set forward.
  CandidateSet(CandidateSet&&) = default;
  CandidateSet& operator=(CandidateSet&&) = default;
  CandidateSet(const CandidateSet&) = delete;
  CandidateSet& operator=(const CandidateSet&) = delete;

  size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }

  /// jns(R): joinable subset of candidate `r`, ascending TrajectorySet
  /// indices. View into the member arena.
  Span<const TrajIndex> members(size_t r) const {
    return Span<const TrajIndex>(members_.data() + offsets_[r],
                                 offsets_[r + 1] - offsets_[r]);
  }

  /// Calls `f(t)` for each member t of ivt(R), ascending, without
  /// allocating: the row's members walked under its mask.
  template <typename F>
  void ForEachInvalid(size_t r, F&& f) const {
    const TrajIndex* m = members_.data() + offsets_[r];
    for (InvalidMask bits = invalid_[r]; bits != 0; bits &= bits - 1) {
      f(m[std::countr_zero(bits)]);
    }
  }

  /// ivt(R): the members that are invalid trajectories, ascending. A copy;
  /// hot loops use ForEachInvalid instead.
  std::vector<TrajIndex> invalid_members(size_t r) const {
    std::vector<TrajIndex> out;
    ForEachInvalid(r, [&](TrajIndex t) { out.push_back(t); });
    return out;
  }

  size_t num_members(size_t r) const { return offsets_[r + 1] - offsets_[r]; }
  size_t num_invalid(size_t r) const {
    return static_cast<size_t>(std::popcount(invalid_[r]));
  }

  /// Member entries in the arena: Σ num_members(r) over every row.
  size_t member_entries() const { return members_.size(); }

  /// Target ID r (always the ID of one member, per the paper: repairs never
  /// invent new values).
  const std::string& target_id(size_t r) const {
    return names_[targets_[r]];
  }

  /// sim(R) of Eq. (1): minimum member-to-target similarity.
  double similarity(size_t r) const { return similarity_[r]; }

  /// ra(R) of Eq. (2); filled by ComputeEffectiveness.
  uint32_t rarity(size_t r) const { return rarity_[r]; }

  /// ω(R) of Eq. (3); filled by ComputeEffectiveness.
  double effectiveness(size_t r) const { return effectiveness_[r]; }

  void set_scores(size_t r, uint32_t rarity, double effectiveness) {
    rarity_[r] = rarity;
    effectiveness_[r] = effectiveness;
  }

  /// Adds `name` to the target-name table and returns its id. Names are
  /// not deduplicated here; a caller that repeats a target reuses the id.
  NameId AddTargetName(std::string name);

  /// Appends one candidate whose target is name `target` of this set. Both
  /// sets must be sorted ascending, `invalid` a subset of `members`, and
  /// `members` at most kMaxRepairMembers long. Returns the new row index.
  size_t Append(Span<const TrajIndex> members, Span<const TrajIndex> invalid,
                NameId target, double similarity);

  /// Appends one candidate with a fresh target-name entry.
  size_t Append(Span<const TrajIndex> members, Span<const TrajIndex> invalid,
                std::string target_id, double similarity) {
    return Append(members, invalid, AddTargetName(std::move(target_id)),
                  similarity);
  }

  /// Concatenates `blocks` in order, consuming them: the rows of block b
  /// follow those of blocks 0..b-1 with every column (members, ivt mask,
  /// target, similarity, scores) unchanged. Each block's member arena is
  /// copied and its offsets shifted; its name table is appended and its
  /// name ids shifted, so a name present in two blocks is stored twice.
  /// The serial work is O(blocks) plus moving the name strings: the output
  /// columns are sized once, then up to `threads` pool workers (one below
  /// ~16k rows, where a dispatch costs more than the copy) each copy a
  /// contiguous run of blocks into place and free them. A lone non-empty
  /// block is moved, not copied.
  static Result<CandidateSet> Concatenate(std::vector<CandidateSet>&& blocks,
                                          int threads = 1);

  /// Reserves room for `rows` rows and as many target names (the string
  /// Append adds one name per row).
  void Reserve(size_t rows);

  /// Heap bytes of every column, the member arena and the name table
  /// (out-of-line string payloads included).
  size_t MemoryBytes() const;

 private:
  DefaultInitVector<uint64_t> offsets_ = {0};
  DefaultInitVector<TrajIndex> members_;
  DefaultInitVector<InvalidMask> invalid_;
  DefaultInitVector<NameId> targets_;
  std::vector<std::string> names_;
  DefaultInitVector<double> similarity_;
  DefaultInitVector<uint32_t> rarity_;
  DefaultInitVector<double> effectiveness_;
};

/// Chooses the target ID for a joinable subset by Eq. (5): the member ID
/// maximizing the length-weighted sum of similarities to all member IDs
/// (longer trajectories get precedence, since repeated misreads across many
/// locations are unlikely). Ties break to the earlier member. `members`
/// must be non-empty.
TrajIndex AssignTargetId(const TrajectorySet& set,
                         Span<const TrajIndex> members,
                         const IdSimilarity& similarity);

/// Phase-1 statistics for the benchmark harness.
struct GenerationStats {
  CliqueEnumerator::Stats clique_stats;
  size_t jnb_checks = 0;
  size_t joinable_subsets = 0;
  /// Pairwise-similarity calls answered from the per-shard memo instead of
  /// recomputed (cliques overlap heavily, so most calls repeat).
  size_t similarity_cache_hits = 0;

  /// Scheduling footprint of the clique-seed loop (ParallelFor): seed
  /// blocks claimed, workers that claimed
  /// at least one, and the worst max/mean busy-time ratio observed (1.0 =
  /// perfectly balanced). Observational only — results never depend on it.
  size_t sched_blocks = 0;
  size_t sched_workers = 0;
  double sched_imbalance = 1.0;

  /// Deterministic reduction of per-shard stats: every counter adds, so the
  /// merged totals are identical for any shard decomposition — the sharded
  /// generator folds shards in fixed shard order and 1/2/8-thread runs
  /// report the same numbers. The sched_* footprint aggregates across
  /// invocations (blocks add, workers and imbalance take the max); it is a
  /// property of the schedule, not of the output.
  void MergeFrom(const GenerationStats& other) {
    clique_stats.MergeFrom(other.clique_stats);
    jnb_checks += other.jnb_checks;
    joinable_subsets += other.joinable_subsets;
    similarity_cache_hits += other.similarity_cache_hits;
    sched_blocks += other.sched_blocks;
    sched_workers = sched_workers > other.sched_workers
                        ? sched_workers
                        : other.sched_workers;
    sched_imbalance = sched_imbalance > other.sched_imbalance
                          ? sched_imbalance
                          : other.sched_imbalance;
  }
};

/// Phase 1 — candidate repair generation (§3.2): enumerates qualified
/// cliques of Gm, keeps those passing jnb (true joinable subsets), assigns
/// each a target ID, and computes sim(R). Repairs that fix no invalid
/// trajectory (|ivt| = 0, e.g. the identity repair of a valid trajectory)
/// are dropped: their effectiveness is 0 by Eq. (3) and they are never
/// selected (Example 4.2).
///
/// Runs over the clique-enumeration seed vertices on the shared exec pool,
/// split into fixed blocks of `options.exec.grain` seeds
/// (kGrainAuto selects the cost model in exec/grain.h) that workers CLAIM
/// dynamically — a seed rooting a heavy clique subtree delays only the
/// worker that claimed it, so one giant component no longer serializes
/// behind a fixed range split. Each block enumerates, jnb-checks, and
/// scores its subtrees sequentially (AssignTargetId tie-breaks and the
/// sim(R) minimum are per-clique, so no cross-block float order exists)
/// into its own CandidateSet. The block sets are then joined by
/// CandidateSet::Concatenate in fixed block order and the stats folded in
/// the same order, making every column bit-identical at every thread count
/// and any claim schedule. A target name used by two blocks is stored once
/// per block. The pairwise-similarity memo caches a pure function of the
/// two ID strings (cached and recomputed values are the same doubles); its
/// table and the invalid-member buffer live in per-thread scratch, reused
/// across blocks instead of reallocated per block. The
/// schedule's footprint is reported in the sched_* stats fields.
///
/// Rarity and effectiveness are *not* filled here — they depend on the full
/// candidate set; call ComputeEffectiveness next.
///
/// Errors: options that fail RepairOptions::Validate (a joinable subset
/// wider than kMaxRepairMembers could not be stored) return InvalidArgument
/// before any work. A block that fails (today only via the
/// `repair.generation.shard` failpoint) propagates through ParallelFor's
/// lowest-errored-block rule and surfaces here as a non-OK Result; no
/// partial candidate set is returned.
Result<CandidateSet> GenerateCandidates(
    const TrajectorySet& set, const TrajectoryGraph& gm,
    const PredicateEvaluator& pred, const RepairOptions& options,
    const IdSimilarity& similarity, const std::vector<bool>& is_valid,
    GenerationStats* stats = nullptr);

/// Fills rarity (Eq. 2) and effectiveness ω (Eq. 3) across the whole
/// candidate set: d(T) is the number of candidates covering the invalid
/// trajectory T, rarity aggregates member degrees per
/// `options.rarity_aggregation`, and
/// ω = sim + λ · log_{rarity + rarity_base_offset}(|ivt|).
///
/// The degree pass is one serial count over every candidate's invalid
/// members; the scoring pass runs in blocks of `options.exec.grain`
/// candidates (the generator's calibration) and writes each candidate's
/// own fields — both bit-identical at every thread count (degrees are
/// integers; ω is computed per candidate from block-independent inputs).
/// A propagated block error leaves `candidates` with possibly part-filled
/// rarity/effectiveness fields; callers must discard the set on error.
Status ComputeEffectiveness(CandidateSet& candidates,
                            const RepairOptions& options, size_t num_trajs);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_CANDIDATES_H_

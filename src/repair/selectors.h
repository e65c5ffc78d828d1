#ifndef IDREPAIR_REPAIR_SELECTORS_H_
#define IDREPAIR_REPAIR_SELECTORS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/deadline.h"
#include "repair/options.h"
#include "repair/repair_graph.h"

namespace idrepair {

/// Execution context for Phase 2 selection. `exec` controls how the
/// selectors shard their sort work; `deadline`, when non-null, is probed
/// before every greedy commit (and at every exact search node) so selection
/// degrades to a well-formed partial selection that is still pairwise
/// compatible: a *prefix* of the greedy commit sequence, or the best
/// packing exact search has found. `commit_order`, when non-null, receives
/// the greedy selectors' indices in commit (pick) order, which the verifier
/// tests pin; exact search has no pick order and leaves it untouched. The
/// returned vector itself is always ascending.
struct SelectionContext {
  ExecOptions exec;
  const fault::Deadline* deadline = nullptr;
  std::vector<RepairIndex>* commit_order = nullptr;
};

/// Phase 2 — compatible repair selection (§3.3, §4.2): pick an independent
/// set of the repair graph, i.e. repairs that share no trajectory.
/// Implementations return candidate indices in ascending order; the
/// returned set is always independent (compatible).
/// The greedy selectors may shard work over the exec pool and evaluate the
/// "repair.selection.*" failpoints; their output is byte-identical at every
/// thread count and equals the test oracles in tests/selection_oracles.h
/// (tests/selectors_parallel_test.cc enforces both).
class RepairSelector {
 public:
  virtual ~RepairSelector() = default;

  virtual Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const = 0;

  /// Stable algorithm name for logs and the Fig 15 harness.
  virtual std::string_view name() const = 0;
};

/// Maximum-effectiveness first (Algorithm 3, "EMAX"): repeatedly take the
/// highest-ω repair and discard its neighbors. Zero-effectiveness repairs
/// are never taken (Example 4.2). Select is SelectEmaxByCover over Gr's
/// trajectory count: it never reads Gr's edges (a repair conflicts with a
/// committed one exactly when they share a trajectory) and shard-sorts the
/// pick order; the commit loop stays serial (DESIGN.md §3).
class EmaxSelector final : public RepairSelector {
 public:
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "EMAX"; }
};

/// Minimum-degree first (DMIN, §6.5.1): repeatedly take a remaining vertex
/// of minimum *current* degree (smallest index on ties) and discard its
/// neighbors — the classic greedy independent-set heuristic, blind to ω.
/// Select commits from a copy of Gr's degrees and cover lists, so it never
/// recounts a degree (DESIGN.md §3).
class DminSelector final : public RepairSelector {
 public:
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "DMIN"; }
};

/// Maximum-degree first (DMAX, §6.5.1): the adversarial twin of DMIN, on
/// the same commit loop with the degree order reversed.
class DmaxSelector final : public RepairSelector {
 public:
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "DMAX"; }
};

/// Exact Eq. 4: a maximum-ω set of pairwise disjoint repairs (a weighted
/// set packing over trajectories), found by branch-and-bound over Gr's
/// cover lists, one conflict component at a time. It branches on the
/// trajectory covered by the most live repairs — take one of them, or none
/// — and prunes with a per-trajectory split of ω (DESIGN.md §3). The
/// search starts from EMAX's picks and replaces them only by a strictly
/// larger Ω, so where EMAX is optimal it returns EMAX's selection.
/// Exponential worst case; serial. It probes ctx.deadline at every search
/// node and, once it expires, returns the best packing found so far. The
/// selection failpoints and commit counters are its EMAX incumbent's.
class ExactSelector final : public RepairSelector {
 public:
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "exact"; }
};

/// The paper's "optimal selection" oracle (§6.5.1): armed with ground truth,
/// it applies exactly the *correct* candidate repairs — those whose members
/// are all fragments of one entity, cover every fragment of that entity, and
/// whose target is the entity's true ID — regardless of ω. Requires the
/// per-trajectory true IDs (majority ground-truth ID of each observed
/// trajectory's records). Ignores `gr` and `ctx`.
class OracleSelector final : public RepairSelector {
 public:
  explicit OracleSelector(std::vector<std::string> true_id_per_traj)
      : true_ids_(std::move(true_id_per_traj)) {}

  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "optimal"; }

 private:
  std::vector<std::string> true_ids_;
};

/// Factory over the SelectionAlgorithm enum (the oracle is excluded: it
/// needs ground truth and is constructed explicitly).
std::unique_ptr<RepairSelector> MakeSelector(SelectionAlgorithm algorithm);

/// Total effectiveness Ω of a selected set (Eq. 4's objective).
double TotalEffectiveness(const CandidateSet& candidates,
                          const std::vector<RepairIndex>& selected);

/// EMAX without building the repair graph: incompatibility is tracked
/// with a per-trajectory mask — O(Σ|members| + n log n). IdRepairer's EMAX
/// path and exact search's incumbent. Shard-sorts the pick order
/// over ctx.exec, evaluates the selection failpoints, and honors
/// ctx.deadline with a compatible-prefix cutoff; byte-identical indices at
/// any thread count.
Result<std::vector<RepairIndex>> SelectEmaxByCover(
    const CandidateSet& candidates, size_t num_trajs,
    const SelectionContext& ctx);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_SELECTORS_H_

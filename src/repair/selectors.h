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
/// selectors shard their sort and degree-pass work; `deadline`, when non-null,
/// is probed before every commit so selection degrades to a well-formed
/// *prefix* of the commit sequence — the partial selection is still
/// pairwise compatible. `commit_order`, when non-null, receives the selected
/// indices in commit (pick) order, which the verifier tests pin; the
/// returned vector itself is always ascending.
struct SelectionContext {
  ExecOptions exec;
  const fault::Deadline* deadline = nullptr;
  std::vector<RepairIndex>* commit_order = nullptr;
};

/// Phase 2 — compatible repair selection (§3.3, §4.2): pick an independent
/// set of the repair graph. Implementations return candidate indices in
/// ascending order; the returned set is always independent (compatible).
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
/// Select is SelectByDegree over ConflictDegrees::Count with Gr's
/// trajectory count: it never reads Gr's edges, only the per-trajectory
/// cover lists (DESIGN.md §3).
class DminSelector final : public RepairSelector {
 public:
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "DMIN"; }
};

/// Maximum-degree first (DMAX, §6.5.1): the adversarial twin of DMIN, on
/// the same path (SelectByDegree with minimize = false).
class DmaxSelector final : public RepairSelector {
 public:
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "DMAX"; }
};

/// Exact maximum-weight independent set via branch-and-bound with connected
/// component decomposition. Exponential worst case — intended for the small
/// datasets of the Fig 15 experiment, exactly as in the paper. Serial;
/// ignores `ctx`.
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

/// EMAX without materializing the repair graph: incompatibility is tracked
/// with a per-trajectory mask instead of Gr adjacency — O(Σ|members| +
/// n log n) rather than O(|Er|). Used by IdRepairer on large inputs, where
/// Gr can hold hundreds of millions of edges. Shard-sorts the pick order
/// over ctx.exec, evaluates the selection failpoints, and honors
/// ctx.deadline with a compatible-prefix cutoff; byte-identical indices at
/// any thread count.
Result<std::vector<RepairIndex>> SelectEmaxByCover(
    const CandidateSet& candidates, size_t num_trajs,
    const SelectionContext& ctx);

/// DMIN (`minimize`) or DMAX without materializing the repair graph: each
/// pick is the surviving repair of minimum (maximum) current Gr degree,
/// smallest index on ties, read off a tournament tree over packed
/// (degree, vertex) keys. A commit removes the pick and every surviving
/// repair in its members' cover lists, and each survivor that shares a
/// trajectory with a removed repair loses one degree per distinct removed
/// neighbor; the commit reads each cover list its batch touches once,
/// whatever the number of removed repairs in it. `conflicts` comes from
/// ConflictDegrees::Count and is consumed.
/// The commit loop is serial; it evaluates "repair.selection.commit" and
/// honors ctx.deadline before each commit (compatible-prefix cutoff).
Result<std::vector<RepairIndex>> SelectByDegree(const CandidateSet& candidates,
                                                ConflictDegrees conflicts,
                                                bool minimize,
                                                const SelectionContext& ctx);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_SELECTORS_H_

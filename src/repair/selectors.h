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
/// parallel selectors shard their sort / invalidation work (num_threads=1
/// or a small input keeps everything on the serial reference path);
/// `deadline`, when non-null, is probed before every commit so selection
/// degrades to a well-formed *prefix* of the commit sequence — the partial
/// selection is still pairwise compatible. `commit_order`, when non-null,
/// receives the selected indices in commit (pick) order, which the verifier
/// tests pin; the returned vector itself is always ascending.
struct SelectionContext {
  ExecOptions exec;
  const fault::Deadline* deadline = nullptr;
  std::vector<RepairIndex>* commit_order = nullptr;
};

/// Phase 2 — compatible repair selection (§3.3, §4.2): pick an independent
/// set of the repair graph. Implementations return candidate indices in
/// ascending order; the returned set is always independent (compatible).
///
/// Two entry points: the 2-arg Select is the serial reference — simple,
/// obviously correct, no failure modes. The 3-arg ctx overload is the
/// production path: it may shard work over the exec pool and evaluate the
/// "repair.selection.*" failpoints, and must return byte-identical indices
/// to the reference at every thread count (tests/selectors_parallel_test.cc
/// enforces this).
class RepairSelector {
 public:
  virtual ~RepairSelector() = default;

  virtual std::vector<RepairIndex> Select(
      const RepairGraph& gr,
      const CandidateSet& candidates) const = 0;

  /// Context-aware selection. The default forwards to the serial reference
  /// (correct for selectors with no parallel form, e.g. the oracle).
  virtual Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const {
    (void)ctx;
    return Select(gr, candidates);
  }

  /// Stable algorithm name for logs and the Fig 15 harness.
  virtual std::string_view name() const = 0;
};

/// Maximum-effectiveness first (Algorithm 3, "EMAX"): repeatedly take the
/// highest-ω repair and discard its neighbors. Zero-effectiveness repairs
/// are never taken (Example 4.2). O(|Vr| log |Vr| + |Er|). The parallel
/// form shard-sorts the pick order and fans neighbor invalidation out over
/// the pool; the commit loop itself stays serial (DESIGN.md §3).
class EmaxSelector final : public RepairSelector {
 public:
  using RepairSelector::Select;
  std::vector<RepairIndex> Select(
      const RepairGraph& gr,
      const CandidateSet& candidates) const override;
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "EMAX"; }
};

/// Minimum-degree first (DMIN, §6.5.1): repeatedly take a remaining vertex
/// of minimum *current* degree and discard its neighbors — the classic
/// greedy independent-set heuristic, blind to ω. The ctx form replaces the
/// O(|Vr|²) rescan with a tournament tree over packed (degree, vertex) keys:
/// the root is the next pick, and a commit re-keys each touched vertex
/// once. It runs serially; only the Gr build before it is sharded.
class DminSelector final : public RepairSelector {
 public:
  using RepairSelector::Select;
  std::vector<RepairIndex> Select(
      const RepairGraph& gr,
      const CandidateSet& candidates) const override;
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "DMIN"; }
};

/// Maximum-degree first (DMAX, §6.5.1): the adversarial twin of DMIN.
class DmaxSelector final : public RepairSelector {
 public:
  using RepairSelector::Select;
  std::vector<RepairIndex> Select(
      const RepairGraph& gr,
      const CandidateSet& candidates) const override;
  Result<std::vector<RepairIndex>> Select(
      const RepairGraph& gr, const CandidateSet& candidates,
      const SelectionContext& ctx) const override;
  std::string_view name() const override { return "DMAX"; }
};

/// Exact maximum-weight independent set via branch-and-bound with connected
/// component decomposition. Exponential worst case — intended for the small
/// datasets of the Fig 15 experiment, exactly as in the paper.
class ExactSelector final : public RepairSelector {
 public:
  using RepairSelector::Select;
  std::vector<RepairIndex> Select(
      const RepairGraph& gr,
      const CandidateSet& candidates) const override;
  std::string_view name() const override { return "exact"; }
};

/// The paper's "optimal selection" oracle (§6.5.1): armed with ground truth,
/// it applies exactly the *correct* candidate repairs — those whose members
/// are all fragments of one entity, cover every fragment of that entity, and
/// whose target is the entity's true ID — regardless of ω. Requires the
/// per-trajectory true IDs (majority ground-truth ID of each observed
/// trajectory's records).
class OracleSelector final : public RepairSelector {
 public:
  explicit OracleSelector(std::vector<std::string> true_id_per_traj)
      : true_ids_(std::move(true_id_per_traj)) {}

  using RepairSelector::Select;
  std::vector<RepairIndex> Select(
      const RepairGraph& gr,
      const CandidateSet& candidates) const override;
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

/// EMAX without materializing the repair graph: identical output to
/// EmaxSelector::Select, but incompatibility is tracked with a
/// per-trajectory mask instead of Gr adjacency — O(Σ|members| + n log n)
/// rather than O(|Er|). Used by IdRepairer on large inputs, where Gr can
/// hold hundreds of millions of edges.
std::vector<RepairIndex> SelectEmaxByCover(
    const CandidateSet& candidates, size_t num_trajs);

/// Context-aware form of the cover-mask EMAX: shard-sorts the pick order
/// over ctx.exec, evaluates the selection failpoints, and honors
/// ctx.deadline with a compatible-prefix cutoff. Byte-identical indices to
/// the 2-arg form at any thread count.
Result<std::vector<RepairIndex>> SelectEmaxByCover(
    const CandidateSet& candidates, size_t num_trajs,
    const SelectionContext& ctx);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_SELECTORS_H_

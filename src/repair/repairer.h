#ifndef IDREPAIR_REPAIR_REPAIRER_H_
#define IDREPAIR_REPAIR_REPAIRER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "repair/candidates.h"
#include "repair/options.h"
#include "repair/predicates.h"
#include "repair/selectors.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// How a RepairStats field measures a run, which decides where RunRecorder
/// folds it:
///  - kCount: work done, a pure function of the input and the options
///    (never of the execution width); folded into a kStable counter.
///  - kSeconds: wall or CPU time; folded into a kRuntime histogram.
///  - kFootprint: how the run was executed (threads, scheduler blocks);
///    reported with the run, never folded.
enum class StatKind { kCount, kSeconds, kFootprint };

/// Per-phase timings and counters of one repair run, powering the paper's
/// running-time plots. Visit() names every field once; --stats-json and
/// the obs metrics walk it, so a new field is added there and nowhere else.
struct RepairStats {
  size_t num_trajectories = 0;
  size_t num_invalid = 0;           // IVTs in the input
  size_t gm_edges = 0;
  size_t cex_evaluations = 0;
  size_t cliques_enumerated = 0;
  size_t pck_pruned = 0;
  size_t jnb_checks = 0;
  size_t joinable_subsets = 0;      // all joinable subsets found (phase 1)
  size_t num_candidates = 0;        // |R| (repairs with |ivt| >= 1)
  // Gr's edge count: Σ degree / 2 from the degree pass under DMIN/DMAX
  // (no edge is built), the built Gr's otherwise; 0 on EMAX's cover path.
  size_t gr_edges = 0;
  size_t num_selected = 0;          // |R'|
  double seconds_gm = 0.0;          // trajectory-graph construction
  double seconds_generation = 0.0;  // cliques + jnb + target assignment
  double seconds_selection = 0.0;   // Gr + selection
  // Gr's build inside seconds_selection: the cover index plus the degree
  // pass (0 on EMAX's cover path); the pick/commit loop or exact search
  // took the rest.
  double seconds_selection_graph = 0.0;
  double seconds_apply = 0.0;       // rewrites + ApplyRewrites
  double seconds_total = 0.0;
  // Wall/CPU split of the run: cpu_* sums the CPU seconds of every thread
  // that worked on the phase, so cpu ≈ wall when sequential and
  // cpu ≈ wall × threads when the phase scales. The per-phase cpu entries
  // are only filled by engines that own the phase (IdRepairer).
  double cpu_seconds_gm = 0.0;
  double cpu_seconds_generation = 0.0;  // cliques + jnb + scoring
  double cpu_seconds_total = 0.0;
  // Parallel-execution footprint: the decomposition width this run was
  // allowed (ExecOptions::ResolvedThreads, >= 1).
  int threads_used = 1;
  // Scheduler footprint of the generation phase (ParallelFor over clique
  // seeds): blocks claimed, workers that claimed at least
  // one, and the max/mean busy-time ratio (1.0 = balanced). Filled by
  // IdRepairer only. Observational — never feeds back into results.
  size_t sched_blocks = 0;
  size_t sched_workers = 0;
  double sched_imbalance = 1.0;

  /// Calls v(name, kind, value) for every field, in declaration order.
  template <class V>
  void Visit(V&& v) const {
    v("num_trajectories", StatKind::kCount, num_trajectories);
    v("num_invalid", StatKind::kCount, num_invalid);
    v("gm_edges", StatKind::kCount, gm_edges);
    v("cex_evaluations", StatKind::kCount, cex_evaluations);
    v("cliques_enumerated", StatKind::kCount, cliques_enumerated);
    v("pck_pruned", StatKind::kCount, pck_pruned);
    v("jnb_checks", StatKind::kCount, jnb_checks);
    v("joinable_subsets", StatKind::kCount, joinable_subsets);
    v("num_candidates", StatKind::kCount, num_candidates);
    v("gr_edges", StatKind::kCount, gr_edges);
    v("num_selected", StatKind::kCount, num_selected);
    v("seconds_gm", StatKind::kSeconds, seconds_gm);
    v("seconds_generation", StatKind::kSeconds, seconds_generation);
    v("seconds_selection", StatKind::kSeconds, seconds_selection);
    v("seconds_selection_graph", StatKind::kSeconds, seconds_selection_graph);
    v("seconds_apply", StatKind::kSeconds, seconds_apply);
    v("seconds_total", StatKind::kSeconds, seconds_total);
    v("cpu_seconds_gm", StatKind::kSeconds, cpu_seconds_gm);
    v("cpu_seconds_generation", StatKind::kSeconds, cpu_seconds_generation);
    v("cpu_seconds_total", StatKind::kSeconds, cpu_seconds_total);
    v("threads_used", StatKind::kFootprint, threads_used);
    v("sched_blocks", StatKind::kFootprint, sched_blocks);
    v("sched_workers", StatKind::kFootprint, sched_workers);
    v("sched_imbalance", StatKind::kFootprint, sched_imbalance);
  }
};

/// The outcome of one repair run.
///
/// ### Partial-result semantics
/// A Repair() call can end three ways:
///  1. Complete: `completion` is OK and every field is fully populated.
///  2. Degraded (deadline): the RepairOptions::deadline_ms budget ran out
///     mid-run. The engine stopped starting new work at a safe boundary —
///     phase or selection commit (IdRepairer), or replay batch
///     (StreamingRepairer's batch adapter) — and passed the unprocessed
///     remainder through unrepaired. `completion` carries
///     StatusCode::kDeadlineExceeded; everything populated is still
///     internally consistent (record conservation holds, every emitted
///     repair is a valid merge, `selected` indexes `candidates`,
///     `rewrites` matches `repaired`).
///  3. Error: the Result itself is non-OK (an injected fault, I/O failure,
///     ...). No RepairResult is produced and no caller-visible state was
///     mutated.
/// Consumers that must distinguish 1 from 2 check `completion`; consumers
/// that only need a usable trajectory set can ignore it.
struct RepairResult {
  /// Phase-1 output: every candidate repair with |ivt| >= 1, with rarity and
  /// effectiveness filled in (columnar; members in one CSR, DESIGN.md §9).
  CandidateSet candidates;
  /// Phase-2 output: indices into `candidates`, ascending, compatible.
  std::vector<RepairIndex> selected;
  /// ID rewrites the selected repairs apply: trajectory index -> target ID.
  /// Only genuinely changed IDs appear.
  std::unordered_map<TrajIndex, std::string> rewrites;
  /// The repaired trajectory set: selected repairs joined, untouched
  /// trajectories passed through.
  TrajectorySet repaired;
  /// Ω(R') — the objective value of Eq. (4) attained by `selected`.
  double total_effectiveness = 0.0;
  /// OK for a complete run; kDeadlineExceeded for a graceful partial result
  /// (see the partial-result semantics above).
  Status completion = Status::OK();
  RepairStats stats;
};

/// The bookkeeping every engine does for one Repair() call, in one place.
/// `prefix` names the engine's metrics (idrepair_<prefix>_*): "repair",
/// "stream", "baseline_neighborhood" or "baseline_idsim".
///
/// Construction ticks idrepair_<prefix>_attempts_total (obs on) and starts
/// the run's wall and CPU clocks. Finish() stamps num_trajectories,
/// num_invalid, threads_used, seconds_total and cpu_seconds_total; on a
/// complete run (OK completion) with obs on it also ticks
/// idrepair_<prefix>_runs_total and folds every field by walking
/// RepairStats::Visit: a kCount field `num_x` or `x` into the kStable
/// counter idrepair_<prefix>_x_total, a kSeconds field `seconds_p` or
/// `cpu_seconds_p` into the kRuntime histogram idrepair_<prefix>_p_seconds
/// or idrepair_<prefix>_p_cpu_seconds. A run that errors out never reaches
/// Finish, so it stays attempted but not completed.
class RunRecorder {
 public:
  RunRecorder(const char* prefix, const TrajectorySet& set,
              const ExecOptions& exec);

  /// Whether each trajectory of the set is valid on `graph`; Finish stamps
  /// the number of invalid ones as num_invalid. Engines that hold a graph
  /// call it once.
  std::vector<bool> Validity(const TransitionGraph& graph);

  void Finish(RepairResult* result) const;

 private:
  const char* prefix_;
  const TrajectorySet& set_;
  int threads_;
  size_t num_invalid_ = 0;
  Stopwatch wall_;
  CpuStopwatch cpu_;
};

/// Abstract repair engine: anything that turns a TrajectorySet into a
/// RepairResult. Implemented by the core two-phase pipeline (IdRepairer),
/// the streaming adapter (StreamingRepairer), and both §6.5.2 baselines, so
/// benches, the CLI, and tests can swap engines polymorphically.
///
/// Engines differ in how much of RepairResult they fill: all of them
/// produce `rewrites`, `repaired`, and timing stats; only IdRepairer
/// exposes `candidates`, `selected`, and `total_effectiveness`.
class Repairer {
 public:
  virtual ~Repairer() = default;

  /// Repairs `set`. Implementations are const — one engine may serve many
  /// concurrent Repair calls.
  virtual Result<RepairResult> Repair(const TrajectorySet& set) const = 0;

  /// Stable engine name for logs and the CLI's --engine flag.
  virtual std::string_view name() const = 0;
};

/// Facade over the two-phase repair paradigm (§3): candidate repair
/// generation followed by compatible repair selection, with the LIG index
/// and MCP pruning optimizations applied per RepairOptions.
///
/// Typical use:
///   IdRepairer repairer(graph, options);
///   auto result = repairer.Repair(trajectories);
class IdRepairer : public Repairer {
 public:
  /// The graph must outlive the repairer. Options are validated at Repair
  /// time.
  IdRepairer(const TransitionGraph& graph, RepairOptions options);

  /// Borrows `evaluator` and its graph, which must outlive the repairer.
  /// Engines over one holder share one evaluator build; the daemon builds
  /// its engines this way from a registered graph's holder. Repair returns
  /// InvalidArgument when options' θ/η differ from the holder's.
  IdRepairer(const LazyPredicateEvaluator& evaluator, RepairOptions options);

  /// Runs the full pipeline on `set`. When `selector` is non-null it
  /// overrides options.selection (used by the Fig 15 harness to plug in the
  /// oracle).
  Result<RepairResult> Repair(const TrajectorySet& set,
                              const RepairSelector* selector) const;

  Result<RepairResult> Repair(const TrajectorySet& set) const override {
    return Repair(set, nullptr);
  }

  std::string_view name() const override { return "core"; }

  const RepairOptions& options() const { return options_; }
  const TransitionGraph& graph() const { return evaluator_->graph(); }

 private:
  RepairOptions options_;
  NormalizedEditSimilarity default_similarity_;
  // The evaluator every Repair() call reads: all the state derived from Gt
  // (θ−1 reachability, hops to an exit), built on the first Repair() so
  // constructing an engine stays cheap. The first constructor points
  // evaluator_ at own_evaluator_, so the build happens once per engine;
  // the borrowing one points it at the caller's holder, so the build
  // happens once per holder — once per registered graph in the daemon,
  // whose requests each build an engine and run their jobs on it in
  // parallel. Repair() is const and may run concurrently; the holder's
  // Get() is thread-safe and the built evaluator immutable.
  LazyPredicateEvaluator own_evaluator_;
  const LazyPredicateEvaluator* evaluator_;
};

/// Applies `rewrites` (Definition 2.5): renames each rewritten trajectory
/// and constructs the set, which joins the trajectories now sharing an ID.
/// Exposed separately so the baseline engines share it.
TrajectorySet ApplyRewrites(
    const TrajectorySet& set,
    const std::unordered_map<TrajIndex, std::string>& rewrites);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_REPAIRER_H_

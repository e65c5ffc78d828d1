#include "repair/repairer.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/deadline.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "repair/repair_graph.h"
#include "repair/trajectory_graph.h"

namespace idrepair {

namespace {

/// The one instrument no RepairStats field copies: a distribution, observed
/// per Gr vertex by every run that builds Gr. kStable: Gr is a pure
/// function of the candidates.
obs::Histogram* ConflictDegree() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "idrepair_selection_conflict_degree", obs::Stability::kStable,
      obs::ExponentialBuckets(1.0, 2.0, 16),
      "Conflict edges per repair-graph vertex (Gr degree distribution; "
      "observed by every selection path except EMAX's cover path)");
  return h;
}

/// The metrics RunRecorder writes for one prefix, resolved once so a run
/// takes the registry lock only when its prefix is first seen.
struct RunInstruments {
  obs::Counter* attempts;
  obs::Counter* runs;
  std::vector<obs::Counter*> counts;      // kCount fields, in Visit order
  std::vector<obs::Histogram*> seconds;   // kSeconds fields, in Visit order
};

/// The name a field folds into under idrepair_<prefix>_ (see RunRecorder):
/// the unit goes last, so a count drops its "num_" and a time moves its
/// "seconds" to the end.
std::string MetricSuffix(std::string_view field, StatKind kind) {
  if (kind == StatKind::kCount) {
    if (field.substr(0, 4) == "num_") field.remove_prefix(4);
    return std::string(field) + "_total";
  }
  const bool cpu = field.substr(0, 4) == "cpu_";
  field.remove_prefix(cpu ? 12 : 8);  // "cpu_seconds_" or "seconds_"
  return std::string(field) + (cpu ? "_cpu_seconds" : "_seconds");
}

RunInstruments& InstrumentsFor(const char* prefix) {
  static std::mutex mu;
  static auto* by_prefix = new std::map<std::string, RunInstruments>();
  std::lock_guard<std::mutex> lock(mu);
  auto [it, fresh] = by_prefix->try_emplace(prefix);
  RunInstruments& inst = it->second;
  if (!fresh) return inst;
  auto& reg = obs::MetricsRegistry::Global();
  const std::string stem = std::string("idrepair_") + prefix + "_";
  inst.attempts = reg.GetCounter(
      stem + "attempts_total", obs::Stability::kStable,
      "Repair() entries (attempted, whether or not the run completed)");
  inst.runs = reg.GetCounter(stem + "runs_total", obs::Stability::kStable,
                             "Repair() runs completed");
  RepairStats().Visit([&](const char* field, StatKind kind, auto) {
    const std::string name = stem + MetricSuffix(field, kind);
    const std::string help = std::string("RepairStats::") + field;
    if (kind == StatKind::kCount) {
      inst.counts.push_back(reg.GetCounter(name, obs::Stability::kStable,
                                           help + ", summed over runs"));
    } else if (kind == StatKind::kSeconds) {
      inst.seconds.push_back(
          reg.GetHistogram(name, obs::Stability::kRuntime,
                           obs::DefaultLatencyBuckets(), help + " per run"));
    }
  });
  return inst;
}

}  // namespace

IdRepairer::IdRepairer(const TransitionGraph& graph, RepairOptions options)
    : options_(std::move(options)),
      own_evaluator_(graph, options_.theta, options_.eta),
      evaluator_(&own_evaluator_) {}

IdRepairer::IdRepairer(const LazyPredicateEvaluator& evaluator,
                       RepairOptions options)
    : options_(std::move(options)),
      own_evaluator_(evaluator.graph(), options_.theta, options_.eta),
      evaluator_(&evaluator) {}

Result<RepairResult> IdRepairer::Repair(const TrajectorySet& set,
                                        const RepairSelector* selector) const {
  IDREPAIR_RETURN_NOT_OK(options_.Validate());
  if (options_.theta != evaluator_->theta() ||
      options_.eta != evaluator_->eta()) {
    return Status::InvalidArgument(
        "repair options (theta " + std::to_string(options_.theta) +
        ", eta " + std::to_string(options_.eta) +
        ") differ from the shared evaluator's (theta " +
        std::to_string(evaluator_->theta()) + ", eta " +
        std::to_string(evaluator_->eta()) + ")");
  }
  const TransitionGraph& graph = evaluator_->graph();
  IDREPAIR_RETURN_NOT_OK(graph.Validate());
  obs::TraceSpan run_span("repair.run");
  const IdSimilarity& base_similarity = options_.similarity != nullptr
                                            ? *options_.similarity
                                            : default_similarity_;
#ifndef NDEBUG
  // Debug builds verify the [0, 1] contract at every metric call; see
  // RangeCheckedSimilarity.
  RangeCheckedSimilarity checked_similarity(base_similarity);
  const IdSimilarity& similarity = checked_similarity;
#else
  const IdSimilarity& similarity = base_similarity;
#endif

  RunRecorder recorder("repair", set, options_.exec);
  fault::Deadline deadline = fault::Deadline::FromMillis(options_.deadline_ms);

  RepairResult result;

  // Apply (Definition 2.5): rewrite the selected repairs' member IDs to
  // their targets and join.
  auto apply_selected = [&] {
    obs::PhaseScope phase("repair.apply", &result.stats.seconds_apply);
    for (RepairIndex r : result.selected) {
      const std::string& target = result.candidates.target_id(r);
      for (TrajIndex m : result.candidates.members(r)) {
        if (set.at(m).id() != target) result.rewrites[m] = target;
      }
    }
    result.repaired = ApplyRewrites(set, result.rewrites);
  };
  // Graceful degradation: seal whatever phases completed into a well-formed
  // partial result (phase granularity — rewrites found so far applied, the
  // rest passed through) with `why` as the completion marker.
  auto finish_degraded = [&](Status why) -> RepairResult {
    result.completion = std::move(why);
    apply_selected();
    result.stats.num_selected = result.selected.size();
    recorder.Finish(&result);
    return std::move(result);
  };

  const std::vector<bool> is_valid = recorder.Validity(graph);

  // ---- Phase 1: candidate repair generation (§3.2) ----
  const PredicateEvaluator& pred = evaluator_->Get();
  std::optional<TrajectoryGraph> gm_storage;
  {
    obs::PhaseScope phase("repair.gm", &result.stats.seconds_gm,
                          &result.stats.cpu_seconds_gm);
    gm_storage.emplace(set, pred, options_);
  }
  IDREPAIR_RETURN_NOT_OK(gm_storage->status());
  const TrajectoryGraph& gm = *gm_storage;
  result.stats.gm_edges = gm.num_edges();
  result.stats.cex_evaluations = gm.stats().cex_evaluations;

  if (deadline.Expired()) {
    return finish_degraded(deadline.Check("candidate generation"));
  }

  GenerationStats gen_stats;
  {
    obs::PhaseScope phase("repair.generation",
                          &result.stats.seconds_generation,
                          &result.stats.cpu_seconds_generation);
    auto candidates = GenerateCandidates(set, gm, pred, options_,
                                         similarity, is_valid, &gen_stats);
    IDREPAIR_RETURN_NOT_OK(candidates.status());
    result.candidates = std::move(candidates).value();
    IDREPAIR_RETURN_NOT_OK(
        ComputeEffectiveness(result.candidates, options_, set.size()));
  }
  result.stats.cliques_enumerated = gen_stats.clique_stats.cliques_emitted;
  result.stats.pck_pruned = gen_stats.clique_stats.pck_pruned;
  result.stats.jnb_checks = gen_stats.jnb_checks;
  result.stats.joinable_subsets = gen_stats.joinable_subsets;
  result.stats.sched_blocks = gen_stats.sched_blocks;
  result.stats.sched_workers = gen_stats.sched_workers;
  result.stats.sched_imbalance = gen_stats.sched_imbalance;
  result.stats.num_candidates = result.candidates.size();

  if (deadline.Expired()) {
    // Candidates exist but none were selected: the partial result repairs
    // nothing, which trivially preserves every input record.
    return finish_degraded(deadline.Check("selection"));
  }

  // ---- Phase 2: compatible repair selection (§3.3) ----
  {
    obs::PhaseScope phase("repair.selection",
                          &result.stats.seconds_selection);
    SelectionContext ctx;
    ctx.exec = options_.exec;
    ctx.deadline = &deadline;
    Result<std::vector<RepairIndex>> selected = std::vector<RepairIndex>();
    if (selector == nullptr &&
        options_.selection == SelectionAlgorithm::kEmax) {
      // EMAX needs no part of Gr: discarding everything that shares a
      // trajectory with a commit is a per-trajectory "used" mask, so this
      // path skips the cover index and the degree pass.
      selected = SelectEmaxByCover(result.candidates, set.size(), ctx);
    } else {
      // Every other selector reads Gr: its cover lists and degrees.
      std::optional<RepairGraph> gr;
      {
        obs::PhaseScope sub("repair.selection.graph",
                            &result.stats.seconds_selection_graph);
        auto built =
            RepairGraph::Build(result.candidates, set.size(), options_.exec);
        IDREPAIR_RETURN_NOT_OK(built.status());
        gr.emplace(std::move(built).value());
      }
      result.stats.gr_edges = gr->num_edges();
      if (obs::Enabled()) {
        for (RepairIndex v = 0; v < gr->num_vertices(); ++v) {
          ConflictDegree()->Observe(static_cast<double>(gr->Degree(v)));
        }
      }
      std::unique_ptr<RepairSelector> owned;
      if (selector == nullptr) {
        owned = MakeSelector(options_.selection);
        selector = owned.get();
      }
      obs::TraceSpan pick("repair.selection.pick");
      selected = selector->Select(*gr, result.candidates, ctx);
    }
    IDREPAIR_RETURN_NOT_OK(selected.status());
    result.selected = std::move(selected).value();
  }
  result.stats.num_selected = result.selected.size();
  result.total_effectiveness =
      TotalEffectiveness(result.candidates, result.selected);

  if (deadline.Expired()) {
    // The budget ran out mid-selection: the selector stopped at a safe
    // boundary, so `selected` is compatible (a prefix of the greedy commit
    // sequence, or the best packing exact search found) — seal it as a
    // partial result.
    return finish_degraded(deadline.Check("selection commit"));
  }

  // ---- Apply: rewrite IDs and join (Definition 2.5) ----
  apply_selected();
  recorder.Finish(&result);
  return result;
}

RunRecorder::RunRecorder(const char* prefix, const TrajectorySet& set,
                         const ExecOptions& exec)
    : prefix_(prefix), set_(set), threads_(exec.ResolvedThreads()) {
  if (obs::Enabled()) InstrumentsFor(prefix_).attempts->Increment();
}

std::vector<bool> RunRecorder::Validity(const TransitionGraph& graph) {
  std::vector<bool> valid(set_.size(), false);
  num_invalid_ = 0;
  for (TrajIndex i = 0; i < set_.size(); ++i) {
    valid[i] = set_.at(i).IsValid(graph);
    if (!valid[i]) ++num_invalid_;
  }
  return valid;
}

void RunRecorder::Finish(RepairResult* result) const {
  RepairStats& stats = result->stats;
  stats.num_trajectories = set_.size();
  stats.num_invalid = num_invalid_;
  stats.threads_used = threads_;
  stats.seconds_total = wall_.ElapsedSeconds();
  stats.cpu_seconds_total = cpu_.ElapsedSeconds();
  if (!result->completion.ok() || !obs::Enabled()) return;
  RunInstruments& inst = InstrumentsFor(prefix_);
  inst.runs->Increment();
  size_t count = 0;
  size_t seconds = 0;
  stats.Visit([&](const char*, StatKind kind, auto value) {
    if (kind == StatKind::kCount) {
      inst.counts[count++]->Increment(static_cast<uint64_t>(value));
    } else if (kind == StatKind::kSeconds) {
      inst.seconds[seconds++]->Observe(static_cast<double>(value));
    }
  });
}

TrajectorySet ApplyRewrites(
    const TrajectorySet& set,
    const std::unordered_map<TrajIndex, std::string>& rewrites) {
  std::vector<Trajectory> trajs = set.trajectories();
  for (const auto& [i, id] : rewrites) {
    trajs[i] = Trajectory(id, trajs[i].points());
  }
  return TrajectorySet(std::move(trajs));
}

}  // namespace idrepair

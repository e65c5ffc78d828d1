// idrepair_bench_traced: the per-layer metrics of one workload.
//
//   idrepair_bench_traced --workload W [--seed S] [--seconds N] [--smoke]
//                         [--out result.json]
//
// The repair pipeline is composed here from its public layer calls —
// PredicateEvaluator, TrajectoryGraph, GenerateCandidates,
// ComputeEffectiveness, RepairGraph::Build / SelectEmaxByCover, Select,
// ApplyRewrites — with a span around each, and the composition must
// reproduce IdRepairer::Repair byte for byte (selected, rewrites, Ω, the
// repaired set) or the run fails. Stream and daemon runs also span Append,
// Poll, Finish and every client round trip, and feed the windows and tenant
// batches they repair through the same composition. The spans go to a
// Chrome trace next to the result file. This is a separate target from
// idrepair_bench so that a layer signature change breaks only this one.
//
// Layer values are per pass: one Repair call (batch workloads), one whole
// replay (stream_replay), or one request per tenant (daemon_catalog).
#include <algorithm>
#include <array>
#include <filesystem>
#include <iostream>
#include <optional>

#include "common/stopwatch.h"
#include "daemon.h"
#include "harness.h"
#include "repair/candidates.h"
#include "repair/predicates.h"
#include "repair/repair_graph.h"
#include "repair/repairer.h"
#include "repair/selectors.h"
#include "repair/trajectory_graph.h"
#include "server/wire_format.h"
#include "sim/similarity.h"
#include "workloads.h"

using namespace idrepair;
using namespace idrepair::bench;

namespace {

// ---- The composed pipeline ----------------------------------------------

enum Field {
  kGmWall, kGmCpu, kCexEvaluations, kGmEdges,
  kGenWall, kGenCpu, kCliques, kPckPruned, kJnbChecks, kJoinable,
  kCandidates, kSimMemoHits, kSchedImbalance,
  kScoreWall,
  kSelWall, kSelGraphWall, kGrEdges, kSelected,
  kApplyWall, kRewrites,
  kNumFields
};
/// One composed repair's layer times (ms) and counts.
using Layers = std::array<double, kNumFields>;

Layers Sum(const std::vector<Layers>& samples) {
  Layers total{};
  total[kSchedImbalance] = 1.0;
  for (const Layers& s : samples) {
    for (int f = 0; f < kNumFields; ++f) {
      total[f] = f == kSchedImbalance ? std::max(total[f], s[f])
                                      : total[f] + s[f];
    }
  }
  return total;
}

Layers MedianOf(const std::vector<Layers>& samples) {
  Layers median{};
  for (int f = 0; f < kNumFields; ++f) {
    std::vector<double> column;
    for (const Layers& s : samples) column.push_back(s[f]);
    median[f] = Median(column);
  }
  return median;
}

/// The layers Poll runs per window (Gm is maintained by Append instead).
double PipelineAfterGmMs(const Layers& l) {
  return l[kGenWall] + l[kScoreWall] + l[kSelWall] + l[kApplyWall];
}

struct Composed {
  std::vector<RepairIndex> selected;
  std::unordered_map<TrajIndex, std::string> rewrites;
  TrajectorySet repaired;
  double total_effectiveness = 0.0;
};

/// IdRepairer::Repair rebuilt from its layer calls, one span per layer.
Result<Composed> ComposeRepair(const TrajectorySet& set,
                               const PredicateEvaluator& pred,
                               const RepairOptions& options,
                               obs::TraceSink* sink, uint64_t call,
                               Layers* layers) {
  obs::TraceSpan root(sink, "repair", call);
  auto ms = [](int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-6; };
  Layers& l = *layers;
  l.fill(0.0);
  const NormalizedEditSimilarity similarity;
  std::vector<bool> is_valid(set.size());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    is_valid[i] = set.at(i).IsValid(pred.graph());
  }

  std::optional<TrajectoryGraph> gm;
  {
    obs::TraceSpan span(sink, "repair.gm", call);
    int64_t t0 = NowNs();
    CpuStopwatch cpu;
    gm.emplace(set, pred, options);
    l[kGmCpu] = cpu.ElapsedSeconds() * 1e3;
    l[kGmWall] = ms(t0);
  }
  l[kCexEvaluations] = static_cast<double>(gm->stats().cex_evaluations);
  l[kGmEdges] = static_cast<double>(gm->num_edges());

  GenerationStats gen;
  std::optional<CandidateSet> candidates;
  {
    obs::TraceSpan span(sink, "repair.generation", call);
    int64_t t0 = NowNs();
    CpuStopwatch cpu;
    auto generated = GenerateCandidates(set, *gm, pred, options, similarity,
                                        is_valid, &gen);
    IDREPAIR_RETURN_NOT_OK(generated.status());
    candidates.emplace(std::move(generated).value());
    l[kGenCpu] = cpu.ElapsedSeconds() * 1e3;
    l[kGenWall] = ms(t0);
  }
  l[kCliques] = static_cast<double>(gen.clique_stats.cliques_emitted);
  l[kPckPruned] = static_cast<double>(gen.clique_stats.pck_pruned);
  l[kJnbChecks] = static_cast<double>(gen.jnb_checks);
  l[kJoinable] = static_cast<double>(gen.joinable_subsets);
  l[kCandidates] = static_cast<double>(candidates->size());
  l[kSimMemoHits] = static_cast<double>(gen.similarity_cache_hits);
  l[kSchedImbalance] = gen.sched_imbalance;

  {
    obs::TraceSpan span(sink, "repair.score", call);
    int64_t t0 = NowNs();
    IDREPAIR_RETURN_NOT_OK(
        ComputeEffectiveness(*candidates, options, set.size()));
    l[kScoreWall] = ms(t0);
  }

  Composed out;
  {
    obs::TraceSpan span(sink, "repair.selection", call);
    int64_t t0 = NowNs();
    SelectionContext ctx;
    ctx.exec = options.exec;
    Result<std::vector<RepairIndex>> selected = Status::Internal("unset");
    if (options.selection == SelectionAlgorithm::kEmax) {
      selected = SelectEmaxByCover(*candidates, set.size(), ctx);
    } else {
      std::optional<RepairGraph> gr;
      {
        obs::TraceSpan sub(sink, "repair.selection.graph", call);
        int64_t g0 = NowNs();
        auto built = RepairGraph::Build(*candidates, set.size(), options.exec);
        IDREPAIR_RETURN_NOT_OK(built.status());
        gr.emplace(std::move(built).value());
        l[kSelGraphWall] = ms(g0);
      }
      l[kGrEdges] = static_cast<double>(gr->num_edges());
      obs::TraceSpan sub(sink, "repair.selection.pick", call);
      selected = MakeSelector(options.selection)->Select(*gr, *candidates, ctx);
    }
    IDREPAIR_RETURN_NOT_OK(selected.status());
    out.selected = std::move(selected).value();
    l[kSelWall] = ms(t0);
  }
  l[kSelected] = static_cast<double>(out.selected.size());
  out.total_effectiveness = TotalEffectiveness(*candidates, out.selected);

  {
    obs::TraceSpan span(sink, "repair.apply", call);
    int64_t t0 = NowNs();
    for (RepairIndex r : out.selected) {
      const std::string& target = candidates->target_id(r);
      for (TrajIndex m : candidates->members(r)) {
        if (set.at(m).id() != target) out.rewrites[m] = target;
      }
    }
    out.repaired = ApplyRewrites(set, out.rewrites);
    l[kApplyWall] = ms(t0);
  }
  l[kRewrites] = static_cast<double>(out.rewrites.size());
  return out;
}

/// PredicateEvaluator construction time for `graph`, ms: the median of
/// `reps` samples, each the mean over as many constructions as fit in a
/// millisecond (one on a city-scale graph, thousands on a 4-vertex one),
/// each sample under a `graph.reach` span.
double ReachMs(const TransitionGraph& graph, const RepairOptions& options,
               obs::TraceSink* sink, int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    obs::TraceSpan span(sink, "graph.reach", static_cast<uint64_t>(i));
    int64_t t0 = NowNs();
    int64_t elapsed = 0;
    int n = 0;
    do {
      PredicateEvaluator pred(graph, options.theta, options.eta);
      ++n;
      elapsed = NowNs() - t0;
    } while (elapsed < 1000000);
    ms.push_back(static_cast<double>(elapsed) * 1e-6 / n);
  }
  return Median(ms);
}

// ---- Per-layer metrics ---------------------------------------------------

/// Everything one traced run reports. The stream.* and server.* fields stay
/// zero on workloads without a stream or a daemon.
struct PerLayer {
  double reach_ms = 0.0;
  Layers layers{};
  double residual_ms = 0.0;
  std::vector<double> op_s;  // the operation latency_ms_p50 times
  size_t samples = 0;        // composed repairs behind `layers`
  double overhead_ratio = 0.0;

  double append_share = 0.0;
  double poll_share = 0.0;
  double pipeline_share = 0.0;
  double generation_runs = 0.0;
  double reuse_ratio = 0.0;
  double dirty_components = 0.0;
  double pending_max = 0.0;
  double emit_lag_eta_p90 = 0.0;

  double engine_share = 0.0;
  double codec_share = 0.0;
  double request_kb = 0.0;
  double reply_kb = 0.0;
  double rejected = 0.0;
  double queue_peak = 0.0;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void EmitPerLayer(Report& report, const PerLayer& p) {
  const Layers& l = p.layers;
  const size_t n = p.samples;
  auto count = [&](const char* name, double v) {
    report.Metric(name, v, "count", n);
  };
  auto ratio = [&](const char* name, double v) {
    report.Metric(name, v, "ratio", n);
  };
  auto wall = [&](const char* name, double v) {
    report.Metric(name, v, "ms", n);
  };
  wall("graph.reach_ms", p.reach_ms);
  wall("repair.gm.wall_ms", l[kGmWall]);
  wall("repair.gm.cpu_ms", l[kGmCpu]);
  count("repair.gm.cex_evaluations", l[kCexEvaluations]);
  count("repair.gm.edges", l[kGmEdges]);
  ratio("repair.gm.cex_yield", Ratio(l[kGmEdges], l[kCexEvaluations]));
  wall("repair.generation.wall_ms", l[kGenWall]);
  wall("repair.generation.cpu_ms", l[kGenCpu]);
  ratio("repair.generation.parallelism", Ratio(l[kGenCpu], l[kGenWall]));
  count("repair.generation.cliques", l[kCliques]);
  count("repair.generation.pck_pruned", l[kPckPruned]);
  count("repair.generation.jnb_checks", l[kJnbChecks]);
  ratio("repair.generation.joinable_yield",
        Ratio(l[kJoinable], l[kJnbChecks]));
  count("repair.generation.candidates", l[kCandidates]);
  count("repair.generation.sim_memo_hits", l[kSimMemoHits]);
  ratio("repair.generation.sched_imbalance", l[kSchedImbalance]);
  wall("repair.score.wall_ms", l[kScoreWall]);
  wall("repair.selection.wall_ms", l[kSelWall]);
  ratio("repair.selection.graph_share", Ratio(l[kSelGraphWall], l[kSelWall]));
  count("repair.selection.gr_edges", l[kGrEdges]);
  count("repair.selection.selected", l[kSelected]);
  ratio("repair.selection.yield", Ratio(l[kSelected], l[kCandidates]));
  wall("repair.apply.wall_ms", l[kApplyWall]);
  count("repair.apply.rewrites", l[kRewrites]);
  wall("repair.residual_ms", p.residual_ms);
  std::vector<double> op_ms;
  for (double s : p.op_s) op_ms.push_back(s * 1e3);
  report.Metric("front.op_ms_p90", Quantile(op_ms, 0.9), "ms", op_ms.size());
  report.Metric("front.op_ms_p99", Quantile(op_ms, 0.99), "ms", op_ms.size());
  ratio("stream.append_share", p.append_share);
  ratio("stream.poll_share", p.poll_share);
  ratio("stream.pipeline_share", p.pipeline_share);
  count("stream.generation_runs", p.generation_runs);
  ratio("stream.reuse_ratio", p.reuse_ratio);
  count("stream.dirty_components", p.dirty_components);
  count("stream.pending_max", p.pending_max);
  ratio("stream.emit_lag_eta_p90", p.emit_lag_eta_p90);
  ratio("server.engine_share", p.engine_share);
  ratio("server.codec_share", p.codec_share);
  report.Metric("server.request_kb", p.request_kb, "KB", n);
  report.Metric("server.reply_kb", p.reply_kb, "KB", n);
  count("server.rejected", p.rejected);
  count("server.queue_peak", p.queue_peak);
  ratio("trace.overhead_ratio", p.overhead_ratio);
}

bool SameTrajectories(const TrajectorySet& a, const TrajectorySet& b) {
  return Flatten(a) == Flatten(b);
}

// ---- Workloads -------------------------------------------------------------

Status RunBatch(const Args& args, Report& report, obs::TraceSink* sink) {
  auto w = MakeBatchWorkload(args);
  IDREPAIR_RETURN_NOT_OK(w.status());
  const TrajectorySet set = TrajectorySet::FromRecords(w->records);
  IdRepairer engine(w->dataset.graph, w->options);
  auto reference = engine.Repair(set);
  IDREPAIR_RETURN_NOT_OK(reference.status());
  IDREPAIR_RETURN_NOT_OK(reference->completion);

  PerLayer p;
  p.reach_ms = ReachMs(w->dataset.graph, w->options, sink,
                       args.smoke ? 1 : 5);
  const PredicateEvaluator pred(w->dataset.graph, w->options.theta,
                                w->options.eta);
  // Untraced Repair and the traced composition alternate, and alternate
  // which goes first, so drift in machine speed hits both alike.
  std::vector<double> traced_s;
  std::vector<Layers> samples;
  size_t failed = 0;
  bool identical = true;
  const Work work(args, Work::Scaled(args, OpsPerSecond(args.workload) / 2));
  for (size_t i = 0; work.More(i); ++i) {
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (i % 2 == 0)) {
        int64_t t0 = NowNs();
        auto result = engine.Repair(set);
        p.op_s.push_back(SecondsSince(t0));
        if (!result.ok() || !result->completion.ok()) ++failed;
      } else {
        Layers layers{};
        int64_t t0 = NowNs();
        auto composed =
            ComposeRepair(set, pred, w->options, sink, i, &layers);
        traced_s.push_back(SecondsSince(t0));
        IDREPAIR_RETURN_NOT_OK(composed.status());
        samples.push_back(layers);
        identical = identical && composed->selected == reference->selected &&
                    composed->rewrites == reference->rewrites &&
                    composed->total_effectiveness ==
                        reference->total_effectiveness &&
                    SameTrajectories(composed->repaired, reference->repaired);
      }
    }
  }
  report.Ops(p.op_s.size() + traced_s.size(), failed);
  report.Gate("composition_matches_repair", identical,
              "the layer-by-layer composition differs from IdRepairer");
  report.Gate("records_conserved",
              ConservesRecords(w->records, Flatten(reference->repaired)),
              "repaired set lost or invented records");
  p.layers = MedianOf(samples);
  p.samples = samples.size();
  const Layers& l = p.layers;
  p.residual_ms = Median(p.op_s) * 1e3 - l[kGmWall] - PipelineAfterGmMs(l);
  // Each pair's two calls ran back to back, so drift in machine speed
  // between pairs does not move their ratio.
  std::vector<double> pair_ratio;
  for (size_t i = 0; i < traced_s.size(); ++i) {
    pair_ratio.push_back(traced_s[i] / p.op_s[i]);
  }
  p.overhead_ratio = Median(pair_ratio);
  EmitPerLayer(report, p);
  return Status::OK();
}

Status RunStream(const Args& args, Report& report, obs::TraceSink* sink) {
  auto w = MakeStreamWorkload(args);
  IDREPAIR_RETURN_NOT_OK(w.status());
  // The capturing replay goes first and doubles as the warm-up, so the
  // plain and traced replays behind the overhead ratio both run warm.
  Replay captured = RunReplay(*w, nullptr, true);
  Replay plain = RunReplay(*w, nullptr, false);
  Replay traced = RunReplay(*w, sink, false);
  std::vector<TrackingRecord> output = Flatten(plain.emitted);
  report.Ops(3 * w->records.size(),
             plain.rejected + traced.rejected + captured.rejected);
  report.Gate("records_conserved", ConservesRecords(w->records, output),
              "the stream lost or invented records");
  report.Gate("replays_identical",
              Flatten(traced.emitted) == output &&
                  Flatten(captured.emitted) == output,
              "replays of the same stream emitted different output");

  PerLayer p;
  p.reach_ms = ReachMs(w->dataset.graph, w->options, sink,
                       args.smoke ? 1 : 5);
  const PredicateEvaluator pred(w->dataset.graph, w->options.theta,
                                w->options.eta);
  // Every window the stream repaired must equal the composed pipeline over
  // the same records; only windows the stream actually recomputed (not
  // served from its component cache) count towards the layer times.
  std::vector<Layers> recomputed;
  bool identical = true;
  for (size_t i = 0; i < captured.windows.size(); ++i) {
    const StreamingRepairer::WindowRepair& window = captured.windows[i];
    Layers layers{};
    auto composed = ComposeRepair(TrajectorySet::FromRecords(window.records),
                                  pred, w->options, sink, i, &layers);
    IDREPAIR_RETURN_NOT_OK(composed.status());
    identical = identical && !window.degraded &&
                Flatten(composed->repaired) == Flatten(window.repaired);
    if (!window.from_cache) recomputed.push_back(layers);
  }
  report.Gate("windows_match_composition", identical,
              "a stream window differs from the composed batch pipeline");

  p.layers = Sum(recomputed);
  p.samples = recomputed.size();
  const double wall_ms = plain.wall_s * 1e3;
  double append_ms = 0.0;
  for (double s : plain.append_s) append_ms += s * 1e3;
  double poll_ms = plain.finish_s * 1e3;
  for (double s : plain.poll_s) poll_ms += s * 1e3;
  const double pipeline_ms = PipelineAfterGmMs(p.layers);
  p.residual_ms = wall_ms - pipeline_ms;
  p.op_s = plain.append_s;
  p.overhead_ratio = traced.wall_s / plain.wall_s;
  p.append_share = Ratio(append_ms, wall_ms);
  p.poll_share = Ratio(poll_ms, wall_ms);
  p.pipeline_share = Ratio(pipeline_ms, poll_ms);
  p.generation_runs = static_cast<double>(plain.generation_runs);
  p.reuse_ratio = Ratio(static_cast<double>(plain.records_reused),
                        static_cast<double>(w->records.size()));
  p.dirty_components = static_cast<double>(plain.dirty_components);
  p.pending_max = static_cast<double>(plain.pending_max);
  p.emit_lag_eta_p90 = Quantile(plain.emit_lag_eta, 0.9);
  EmitPerLayer(report, p);
  return Status::OK();
}

Status RunDaemon(const Args& args, Report& report, obs::TraceSink* sink) {
  auto tenants = MakeTenants(args);
  IDREPAIR_RETURN_NOT_OK(tenants.status());
  double setup_s = 0.0;
  auto daemon = Daemon::Start(SocketPathFor(args, 0), 2, *tenants, &setup_s);
  IDREPAIR_RETURN_NOT_OK(daemon.status());
  // A plain and a traced half.
  const size_t per_client = RequestsPerClient(args, tenants->size(), 2, 2);
  auto plain =
      RunClients((*daemon)->address(), *tenants, 2, per_client, nullptr);
  IDREPAIR_RETURN_NOT_OK(plain.status());
  auto traced = RunClients((*daemon)->address(), *tenants, 2, per_client, sink);
  IDREPAIR_RETURN_NOT_OK(traced.status());
  auto admission = (*daemon)->Admission();
  IDREPAIR_RETURN_NOT_OK(admission.status());
  Status stopped = (*daemon)->Stop();
  const size_t mismatched = plain->mismatched + traced->mismatched;
  report.Ops(plain->latency_s.size() + traced->latency_s.size(),
             plain->failed + traced->failed + mismatched);
  report.Gate("replies_match_local_repair", mismatched == 0,
              std::to_string(mismatched) +
                  " replies differ from a local IdRepairer run");
  report.Gate("daemon_stops_cleanly", stopped.ok(), stopped.ToString());

  PerLayer p;
  std::vector<Layers> per_tenant;
  bool identical = true;
  double round_trip_ms = 0.0;  // one request per tenant, medians
  double codec_ms = 0.0;
  for (size_t k = 0; k < tenants->size(); ++k) {
    const Tenant& t = (*tenants)[k];
    p.reach_ms += ReachMs(t.dataset.graph, t.options, sink,
                          args.smoke ? 1 : 3);
    const PredicateEvaluator pred(t.dataset.graph, t.options.theta,
                                  t.options.eta);
    Layers layers{};
    auto composed = ComposeRepair(TrajectorySet::FromRecords(t.batch), pred,
                                  t.options, sink, k, &layers);
    IDREPAIR_RETURN_NOT_OK(composed.status());
    identical = identical && Flatten(composed->repaired) == t.expected;
    per_tenant.push_back(layers);

    std::vector<double> tenant_rt;
    for (size_t i = 0; i < plain->latency_s.size(); ++i) {
      if (plain->tenant[i] == k) tenant_rt.push_back(plain->latency_s[i]);
    }
    round_trip_ms += Median(tenant_rt) * 1e3;

    // Both ends' codec work for one request: the client encodes the
    // request and decodes the reply, the daemon the other way round.
    int64_t t0 = NowNs();
    std::string request = server::EncodeRepairRequest(RequestFor(t));
    server::RepairRequest decoded_request;
    IDREPAIR_RETURN_NOT_OK(
        server::DecodeRepairRequest(request, &decoded_request));
    server::RepairReply reply;
    reply.batches.emplace_back();
    reply.batches.back().repaired = t.expected;
    std::string reply_bytes = server::EncodeRepairReply(reply);
    server::BinaryReader reader(reply_bytes);
    server::RepairReply decoded_reply;
    IDREPAIR_RETURN_NOT_OK(server::DecodeRepairReply(&reader, &decoded_reply));
    codec_ms += static_cast<double>(NowNs() - t0) * 1e-6;
    p.request_kb += static_cast<double>(request.size()) / 1024.0;
    p.reply_kb += static_cast<double>(reply_bytes.size()) / 1024.0;
  }
  report.Gate("composition_matches_repair", identical,
              "the composed pipeline differs from IdRepairer on a tenant");
  const double n = static_cast<double>(tenants->size());
  p.request_kb /= n;
  p.reply_kb /= n;
  p.layers = Sum(per_tenant);
  p.samples = per_tenant.size();
  p.residual_ms = round_trip_ms - p.reach_ms - p.layers[kGmWall] -
                  PipelineAfterGmMs(p.layers);
  p.op_s = plain->latency_s;
  p.overhead_ratio = Median(traced->latency_s) / Median(plain->latency_s);
  double engine_s = 0.0;
  double latency_s = 0.0;
  for (double s : plain->engine_s) engine_s += s;
  for (double s : plain->latency_s) latency_s += s;
  p.engine_share = Ratio(engine_s, latency_s);
  p.codec_share = Ratio(codec_ms, round_trip_ms);
  p.rejected = static_cast<double>(admission->rejected);
  p.queue_peak = static_cast<double>(admission->queue_peak);
  EmitPerLayer(report, p);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n"
              << "usage: idrepair_bench_traced --workload W [--seed S] "
                 "[--seconds N] [--smoke] [--out FILE]\n";
    return 2;
  }
  if (!args->out.empty()) {
    std::filesystem::path dir = std::filesystem::path(args->out).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
  }
  Report report(*args, /*traced=*/true);
  // Room for every span of a run on each thread: a stream replay records
  // one per Append.
  obs::TraceSink sink(size_t{1} << 18);
  Status status;
  if (args->workload == "stream_replay") {
    status = RunStream(*args, report, &sink);
  } else if (args->workload == "daemon_catalog") {
    status = RunDaemon(*args, report, &sink);
  } else {
    status = RunBatch(*args, report, &sink);
  }
  if (!status.ok()) {
    std::cerr << args->workload << ": " << status << "\n";
    return 1;
  }
  report.Gate("trace_complete", sink.dropped_events() == 0,
              std::to_string(sink.dropped_events()) +
                  " spans overwritten in the trace buffer");
  return report.Finish(&sink);
}

#include "repair/stats_json.h"

#include <fstream>

#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace idrepair {

const char* SelectionName(SelectionAlgorithm selection) {
  switch (selection) {
    case SelectionAlgorithm::kEmax: return "emax";
    case SelectionAlgorithm::kDmin: return "dmin";
    case SelectionAlgorithm::kDmax: return "dmax";
    case SelectionAlgorithm::kExact: return "exact";
  }
  return "unknown";
}

void WriteMetricsJson(JsonWriter& w) {
  w.BeginArray();
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    w.BeginObject();
    w.Key("name");
    w.String(m.name);
    w.Key("stability");
    w.String(m.stability == obs::Stability::kStable ? "stable" : "runtime");
    switch (m.type) {
      case obs::MetricSnapshot::Type::kCounter:
        w.Key("type");
        w.String("counter");
        w.Key("value");
        w.Uint(m.counter_value);
        break;
      case obs::MetricSnapshot::Type::kGauge:
        w.Key("type");
        w.String("gauge");
        w.Key("value");
        w.Int(m.gauge_value);
        break;
      case obs::MetricSnapshot::Type::kHistogram:
        w.Key("type");
        w.String("histogram");
        w.Key("count");
        w.Uint(m.total_count);
        w.Key("sum");
        w.Double(m.sum);
        w.Key("bounds");
        w.BeginArray();
        for (double b : m.bounds) w.Double(b);
        w.EndArray();
        w.Key("bucket_counts");
        w.BeginArray();
        for (uint64_t c : m.bucket_counts) w.Uint(c);
        w.EndArray();
        break;
    }
    w.EndObject();
  }
  w.EndArray();
}

void WriteStatsJson(std::ostream& out, std::string_view engine,
                    const RepairOptions& options, const RepairResult& result) {
  const RepairStats& s = result.stats;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("engine");
  w.String(engine);
  w.Key("options");
  w.BeginObject();
  w.Key("theta");
  w.Uint(options.theta);
  w.Key("eta");
  w.Int(options.eta);
  w.Key("zeta");
  w.Uint(options.zeta);
  w.Key("lambda");
  w.Double(options.lambda);
  w.Key("time_bin");
  w.Int(options.time_bin);
  w.Key("use_lig");
  w.Bool(options.use_lig);
  w.Key("use_mcp_pruning");
  w.Bool(options.use_mcp_pruning);
  w.Key("selection");
  w.String(SelectionName(options.selection));
  w.Key("num_threads");
  w.Int(options.exec.num_threads);
  w.Key("grain");
  w.Uint(options.exec.grain);
  w.Key("deadline_ms");
  w.Int(options.deadline_ms);
  w.EndObject();
  w.Key("stats");
  w.BeginObject();
  w.Key("num_trajectories");
  w.Uint(s.num_trajectories);
  w.Key("num_invalid");
  w.Uint(s.num_invalid);
  w.Key("gm_edges");
  w.Uint(s.gm_edges);
  w.Key("cex_evaluations");
  w.Uint(s.cex_evaluations);
  w.Key("cliques_enumerated");
  w.Uint(s.cliques_enumerated);
  w.Key("pck_pruned");
  w.Uint(s.pck_pruned);
  w.Key("jnb_checks");
  w.Uint(s.jnb_checks);
  w.Key("joinable_subsets");
  w.Uint(s.joinable_subsets);
  w.Key("num_candidates");
  w.Uint(s.num_candidates);
  w.Key("gr_edges");
  w.Uint(s.gr_edges);
  w.Key("num_selected");
  w.Uint(s.num_selected);
  w.Key("seconds_gm");
  w.Double(s.seconds_gm);
  w.Key("seconds_generation");
  w.Double(s.seconds_generation);
  w.Key("seconds_selection");
  w.Double(s.seconds_selection);
  w.Key("seconds_total");
  w.Double(s.seconds_total);
  w.Key("cpu_seconds_gm");
  w.Double(s.cpu_seconds_gm);
  w.Key("cpu_seconds_generation");
  w.Double(s.cpu_seconds_generation);
  w.Key("cpu_seconds_total");
  w.Double(s.cpu_seconds_total);
  w.Key("cpu_clock_source");
  w.String(s.cpu_clock_source);
  w.Key("threads_used");
  w.Int(s.threads_used);
  w.EndObject();
  // Steal/imbalance summary of the generation phase's dynamic scheduler
  // (ParallelForDynamic): how the clique-seed blocks actually landed on
  // workers. Runtime-dependent by nature (imbalance reflects timing), so
  // golden comparisons should treat the imbalance value as informational.
  w.Key("scheduler");
  w.BeginObject();
  w.Key("generation_blocks");
  w.Uint(s.sched_blocks);
  w.Key("generation_workers");
  w.Uint(s.sched_workers);
  w.Key("generation_imbalance");
  w.Double(s.sched_imbalance);
  w.EndObject();
  w.Key("total_effectiveness");
  w.Double(result.total_effectiveness);
  w.Key("num_rewrites");
  w.Uint(result.rewrites.size());
  w.Key("completion");
  w.BeginObject();
  w.Key("code");
  w.String(StatusCodeToString(result.completion.code()));
  w.Key("message");
  w.String(result.completion.message());
  w.EndObject();
  w.Key("fault");
  w.BeginObject();
  w.Key("armed_sites");
  w.Uint(fault::FailPointRegistry::Global().NumArmed());
  w.Key("total_fires");
  w.Uint(fault::FailPointRegistry::Global().TotalFires());
  {
    // Per-site breakdown, only for sites the run touched (armed or
    // evaluated) — so a clean run's fault block stays exactly two keys and
    // the golden key-order test never depends on which sites exist.
    std::vector<fault::FailPointInfo> touched;
    for (fault::FailPointInfo& info :
         fault::FailPointRegistry::Global().Snapshot()) {
      if (info.armed || info.hits > 0 || info.fires > 0) {
        touched.push_back(std::move(info));
      }
    }
    if (!touched.empty()) {
      w.Key("sites");
      w.BeginArray();
      for (const fault::FailPointInfo& info : touched) {
        w.BeginObject();
        w.Key("name");
        w.String(info.name);
        w.Key("armed");
        w.Bool(info.armed);
        w.Key("hits");
        w.Uint(info.hits);
        w.Key("fires");
        w.Uint(info.fires);
        w.EndObject();
      }
      w.EndArray();
    }
  }
  w.EndObject();
  if (obs::Enabled()) {
    w.Key("metrics");
    WriteMetricsJson(w);
  }
  w.EndObject();
  out << "\n";
}

Status WriteStatsJsonFile(const std::string& path, std::string_view engine,
                          const RepairOptions& options,
                          const RepairResult& result) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  WriteStatsJson(out, engine, options, result);
  if (!out.good()) return Status::IoError("failed writing '" + path + "'");
  return Status::OK();
}

}  // namespace idrepair

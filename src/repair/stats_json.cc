#include "repair/stats_json.h"

#include <fstream>
#include <type_traits>

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
  result.stats.Visit([&w](const char* name, StatKind, auto value) {
    w.Key(name);
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      w.Double(value);
    } else {
      w.Uint(static_cast<uint64_t>(value));  // counts and threads_used >= 1
    }
  });
  // Which clock produced the cpu_seconds_* fields ("process_cputime" or the
  // "std_clock" fallback), so CPU numbers from different platforms are
  // never compared unknowingly.
  w.Key("cpu_clock_source");
  w.String(CpuStopwatch::SourceName());
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

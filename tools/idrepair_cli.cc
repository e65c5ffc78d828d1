// idrepair command-line tool: repair, generate, inspect and export.
//
//   idrepair_cli repair   --graph g.txt --records in.csv --out fixed.csv
//                         [--truth truth.csv] [--theta N] [--eta SECONDS]
//                         [--zeta N] [--lambda F] [--selection emax|dmin|
//                         dmax|exact] [--similarity edit|jaro_winkler|
//                         bigram_cosine|overlap] [--no-lig] [--no-prune]
//                         [--explain] [--threads N] [--grain auto|N]
//                         [--engine core|streaming|idsim|neighborhood]
//                         [--max-edit-distance N]
//                         [--flush-horizon F] [--max-buffered N]
//                         [--metrics-out FILE] [--metrics-interval MS]
//                         [--trace-out FILE]
//                         [--trace-capacity N] [--stats-json FILE]
//                         [--deadline-ms N] [--failpoints SPEC]
//                         [--failpoints-status]
//   idrepair_cli generate --graph g.txt --out records.csv
//                         [--truth truth.csv] [--trajectories N]
//                         [--error-rate F] [--missing-rate F] [--seed N]
//                         [--window SECONDS] [--max-path-len N]
//   idrepair_cli stats    --graph g.txt --records in.csv
//   idrepair_cli dot      --graph g.txt
//   idrepair_cli serve    [--listen tcp:127.0.0.1:7077] [--load-dir DIR]
//                         [--snapshot-dir DIR] [--max-inflight N]
//                         [--default-deadline-ms N] [--threads N]
//                         [--metrics-out FILE] [--metrics-interval MS]
//                         [--failpoints SPEC]
//   idrepair_cli client register --connect ADDR --name NAME --graph g.txt
//                         [--records corpus.csv] [--theta N] [--eta S] ...
//   idrepair_cli client repair   --connect ADDR --name NAME
//                         (--records in.csv --graph g.txt [--out fixed.csv]
//                          | --use-corpus) [--budget-ms N]
//   idrepair_cli client snapshot --connect ADDR [--dir DIR]
//   idrepair_cli client stats    --connect ADDR [--prometheus]
//   idrepair_cli client shutdown --connect ADDR
//
// Graph files use the text format of graph/serialization.h; record files
// are `id,loc,ts` CSV. Every command reads all the flags it accepts before
// it does any work and exits 2, naming them, if any flag is left unread.

#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "baselines/id_similarity_repairer.h"
#include "baselines/neighborhood_repairer.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "exec/grain.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/scrape.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "gen/synthetic.h"
#include "graph/serialization.h"
#include "repair/explain.h"
#include "repair/repairer.h"
#include "repair/stats_json.h"
#include "sim/similarity.h"
#include "stream/streaming_repairer.h"
#include "traj/csv.h"
#include "traj/stats.h"

namespace idrepair {
namespace {

constexpr char kUsage[] =
    "usage: idrepair_cli <repair|generate|stats|dot|serve|client> [flags]\n"
    "run with a command and no flags for that command's requirements\n";

Status RequireFlag(const FlagParser& flags, const std::string& key) {
  if (!flags.Has(key)) {
    return Status::InvalidArgument("missing required flag --" + key);
  }
  return Status::OK();
}

Result<SelectionAlgorithm> ParseSelection(const std::string& selection) {
  if (selection == "emax") return SelectionAlgorithm::kEmax;
  if (selection == "dmin") return SelectionAlgorithm::kDmin;
  if (selection == "dmax") return SelectionAlgorithm::kDmax;
  if (selection == "exact") return SelectionAlgorithm::kExact;
  return Status::InvalidArgument("unknown --selection '" + selection + "'");
}

/// Exit code 2 after naming every flag the command never read (a typo, a
/// retired flag, or a flag of another command or engine); 0 when there is
/// none. Commands call this once they have read all their flags and before
/// they do any work.
int RejectUnreadFlags(const FlagParser& flags) {
  std::vector<std::string> unread = flags.Unread();
  if (unread.empty()) return 0;
  std::cerr << "error: unknown flag" << (unread.size() > 1 ? "s" : "");
  for (const std::string& key : unread) std::cerr << " --" << key;
  std::cerr << " (not read by this command)\n";
  return 2;
}

/// --threads, shared by `repair` and `serve`. The flag parses as int64;
/// a value outside int's range is rejected instead of narrowed (4294967297
/// would otherwise run at one thread). Negative values are left to the
/// options' own checks, which name them.
Result<int> ThreadsFromFlags(const FlagParser& flags) {
  auto threads = flags.GetInt("threads", 0);
  if (!threads.ok()) return threads.status();
  if (*threads < std::numeric_limits<int>::min() ||
      *threads > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("--threads out of range: " +
                                   std::to_string(*threads));
  }
  return static_cast<int>(*threads);
}

Result<RepairOptions> OptionsFromFlags(const FlagParser& flags) {
  auto theta = flags.GetInt("theta", 4);
  if (!theta.ok()) return theta.status();
  auto eta = flags.GetInt("eta", 600);
  if (!eta.ok()) return eta.status();
  auto zeta = flags.GetInt("zeta", 4);
  if (!zeta.ok()) return zeta.status();
  auto lambda = flags.GetDouble("lambda", 0.5);
  if (!lambda.ok()) return lambda.status();
  auto threads = ThreadsFromFlags(flags);
  if (!threads.ok()) return threads.status();
  auto grain = ParseGrainValue(flags.GetString("grain", "auto"), "grain");
  if (!grain.ok()) return grain.status();
  auto selection = ParseSelection(flags.GetString("selection", "emax"));
  if (!selection.ok()) return selection.status();
  auto deadline_ms = flags.GetInt("deadline-ms", 0);
  if (!deadline_ms.ok()) return deadline_ms.status();
  // Negative counts would wrap to huge size_t values that Validate()
  // cannot tell from a deliberate bound.
  if (*theta < 0 || *zeta < 0) {
    return Status::InvalidArgument("--theta and --zeta must be >= 1");
  }

  // The CLI owns the metric for the lifetime of the process; RepairOptions
  // only borrows it (see the ownership contract in repair/options.h).
  static std::unique_ptr<IdSimilarity> owned_similarity;
  auto sim = MakeSimilarity(flags.GetString("similarity", "edit"));
  if (!sim.ok()) return sim.status();
  owned_similarity = std::move(*sim);

  RepairOptions options;
  options.theta = static_cast<size_t>(*theta);
  options.eta = *eta;
  options.zeta = static_cast<size_t>(*zeta);
  options.lambda = *lambda;
  options.use_lig = !flags.GetBool("no-lig");
  options.use_mcp_pruning = !flags.GetBool("no-prune");
  options.selection = *selection;
  options.similarity = owned_similarity.get();
  options.exec.num_threads = *threads;
  options.exec.grain = *grain;
  options.deadline_ms = *deadline_ms;
  IDREPAIR_RETURN_NOT_OK(options.Validate());
  return options;
}

/// --metrics-out FILE and --metrics-interval MS, shared by `repair` and
/// `serve`. An empty path means no metrics export.
struct MetricsFlags {
  std::string path;
  int64_t interval_ms = 0;
};

Result<MetricsFlags> MetricsFromFlags(const FlagParser& flags) {
  MetricsFlags metrics;
  metrics.path = flags.GetString("metrics-out");
  auto interval = flags.GetInt("metrics-interval", 0);
  if (!interval.ok()) return interval.status();
  if (*interval < 0) {
    return Status::InvalidArgument("--metrics-interval must be >= 0");
  }
  if (*interval > 0 && metrics.path.empty()) {
    return Status::InvalidArgument(
        "--metrics-interval needs --metrics-out to scrape into");
  }
  metrics.interval_ms = *interval;
  return metrics;
}

/// The periodic scraper of --metrics-interval, or nullptr without one.
Result<std::unique_ptr<obs::MetricsScraper>> StartScraper(
    const MetricsFlags& metrics) {
  if (metrics.interval_ms == 0) {
    return std::unique_ptr<obs::MetricsScraper>();
  }
  obs::MetricsScraper::Options options;
  options.path = metrics.path;
  options.interval_ms = metrics.interval_ms;
  return obs::MetricsScraper::Start(std::move(options));
}

/// Ends the metrics export of `repair` and `serve`. The periodic scraper's
/// Stop() writes the final exposition (a one-shot dump would only repeat
/// its last block); without a scraper, --metrics-out gets one exposition.
Status FinishMetrics(const MetricsFlags& metrics,
                     obs::MetricsScraper* scraper) {
  if (scraper != nullptr) {
    scraper->Stop();
    IDREPAIR_RETURN_NOT_OK(scraper->last_error());
    std::cout << "wrote " << scraper->scrapes() << " metric scrapes to "
              << metrics.path << "\n";
    return Status::OK();
  }
  if (metrics.path.empty()) return Status::OK();
  std::ofstream out(metrics.path);
  if (!out) {
    return Status::IoError("cannot open '" + metrics.path + "' for writing");
  }
  out << obs::MetricsRegistry::Global().RenderPrometheus();
  if (!out.good()) {
    return Status::IoError("failed writing '" + metrics.path + "'");
  }
  std::cout << "wrote metrics to " << metrics.path << "\n";
  return Status::OK();
}

/// The --engine choice and the flags of that engine alone.
struct EngineFlags {
  std::string name;
  StreamOptions stream;
  size_t max_edit_distance = 3;
};

Result<EngineFlags> EngineFromFlags(const FlagParser& flags) {
  EngineFlags engine;
  engine.name = flags.GetString("engine", "core");
  if (engine.name == "streaming") {
    auto horizon = flags.GetDouble("flush-horizon", 2.0);
    if (!horizon.ok()) return horizon.status();
    if (*horizon < 1.0) {
      return Status::InvalidArgument(
          "--flush-horizon must be >= 1 (emitted fragments must be inert)");
    }
    auto max_buffered = flags.GetInt("max-buffered", 0);
    if (!max_buffered.ok()) return max_buffered.status();
    if (*max_buffered < 0) {
      return Status::InvalidArgument("--max-buffered must be >= 0");
    }
    engine.stream.flush_horizon_multiplier = *horizon;
    engine.stream.max_buffered = static_cast<size_t>(*max_buffered);
  } else if (engine.name == "idsim") {
    auto dist = flags.GetInt("max-edit-distance", 3);
    if (!dist.ok()) return dist.status();
    if (*dist < 0) {
      return Status::InvalidArgument("--max-edit-distance must be >= 0");
    }
    engine.max_edit_distance = static_cast<size_t>(*dist);
  } else if (engine.name != "core" && engine.name != "neighborhood") {
    return Status::InvalidArgument("unknown --engine '" + engine.name + "'");
  }
  return engine;
}

std::unique_ptr<Repairer> MakeEngine(const EngineFlags& engine,
                                     const TransitionGraph& graph,
                                     const RepairOptions& options) {
  if (engine.name == "streaming") {
    return std::make_unique<StreamingRepairer>(graph, options, engine.stream);
  }
  if (engine.name == "idsim") {
    return std::make_unique<IdSimilarityRepairer>(graph, options,
                                                  engine.max_edit_distance);
  }
  if (engine.name == "neighborhood") {
    return std::make_unique<NeighborhoodRepairer>(graph, options);
  }
  return std::make_unique<IdRepairer>(graph, options);
}

int FailWith(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

int RunRepair(const FlagParser& flags) {
  for (const char* key : {"graph", "records", "out"}) {
    if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
  }
  const std::string graph_path = flags.GetString("graph");
  const std::string records_path = flags.GetString("records");
  const std::string out_path = flags.GetString("out");
  const std::string truth_path = flags.GetString("truth");
  const std::string stats_json_path = flags.GetString("stats-json");
  const std::string trace_path = flags.GetString("trace-out");
  const std::string failpoints = flags.GetString("failpoints");
  const bool failpoints_status = flags.GetBool("failpoints-status");
  const bool explain = flags.GetBool("explain");
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return FailWith(options.status());
  auto engine_flags = EngineFromFlags(flags);
  if (!engine_flags.ok()) return FailWith(engine_flags.status());
  auto metrics = MetricsFromFlags(flags);
  if (!metrics.ok()) return FailWith(metrics.status());
  auto trace_capacity = flags.GetInt("trace-capacity", 8192);
  if (!trace_capacity.ok()) return FailWith(trace_capacity.status());
  if (*trace_capacity <= 0) {
    return FailWith(Status::InvalidArgument("--trace-capacity must be >= 1"));
  }
  if (int code = RejectUnreadFlags(flags); code != 0) return code;

  // Arm failpoints before any I/O so the io.* sites see the load path too.
  if (Status s = fault::ArmFromString(failpoints); !s.ok()) return FailWith(s);
  auto graph = ReadTransitionGraphFile(graph_path);
  if (!graph.ok()) return FailWith(graph.status());
  auto records = ReadRecordsCsvFile(records_path, *graph);
  if (!records.ok()) return FailWith(records.status());

  // Requesting any export switches instrumentation on for the process, for
  // every engine alike; there is no separate --obs switch to forget. The
  // stats document's `metrics` array is where the stream's counters land.
  if (!metrics->path.empty() || !trace_path.empty() ||
      !stats_json_path.empty()) {
    obs::TraceSink::Global().SetCapacity(static_cast<size_t>(*trace_capacity));
    obs::SetEnabled(true);
  }
  auto scraper = StartScraper(*metrics);
  if (!scraper.ok()) return FailWith(scraper.status());

  TrajectorySet set = TrajectorySet::FromRecords(*records);
  std::unique_ptr<Repairer> engine =
      MakeEngine(*engine_flags, *graph, *options);
  auto result = engine->Repair(set);
  if (!result.ok()) return FailWith(result.status());

  std::cout << "engine: " << engine->name() << ", trajectories: "
            << set.size() << " (" << result->stats.num_invalid
            << " invalid), candidates: " << result->stats.num_candidates
            << ", selected: " << result->stats.num_selected
            << ", rewrites: " << result->rewrites.size() << ", threads: "
            << result->stats.threads_used << ", time: "
            << ToFixed(result->stats.seconds_total * 1e3, 1) << " ms\n";
  if (!result->completion.ok()) {
    std::cout << "partial result (graceful degradation): "
              << result->completion << "\n";
  }
  if (failpoints_status) {
    std::cout << fault::FailPointRegistry::Global().RenderStatus();
  }

  if (explain) {
    std::cout << ExplainRepair(set, *graph, *result, *options);
  }

  if (Status s = FinishMetrics(*metrics, scraper->get()); !s.ok()) {
    return FailWith(s);
  }
  if (!trace_path.empty()) {
    if (Status s = obs::TraceSink::Global().WriteJsonFile(trace_path);
        !s.ok()) {
      return FailWith(s);
    }
    std::cout << "wrote trace to " << trace_path << "\n";
  }
  if (!stats_json_path.empty()) {
    if (Status s = WriteStatsJsonFile(stats_json_path, engine->name(),
                                      *options, *result);
        !s.ok()) {
      return FailWith(s);
    }
    std::cout << "wrote stats to " << stats_json_path << "\n";
  }

  if (!truth_path.empty()) {
    auto truth_records = ReadRecordsCsvFile(truth_path, *graph);
    if (!truth_records.ok()) return FailWith(truth_records.status());
    auto dataset = MakeLabeledDataset(*graph, *records, *truth_records);
    if (!dataset.ok()) return FailWith(dataset.status());
    auto truth = ComputeFragmentTruth(*dataset, set);
    auto quality = EvaluateRewrites(truth, set, result->rewrites);
    std::cout << "precision=" << ToFixed(quality.precision, 3)
              << " recall=" << ToFixed(quality.recall, 3)
              << " f-measure=" << ToFixed(quality.f_measure, 3) << "\n";
  }

  const std::vector<TrackingRecord> repaired = result->repaired.Records();
  if (Status s = WriteRecordsCsvFile(out_path, *graph, repaired); !s.ok()) {
    return FailWith(s);
  }
  std::cout << "wrote " << repaired.size() << " records to " << out_path
            << "\n";
  return 0;
}

int RunGenerate(const FlagParser& flags) {
  for (const char* key : {"graph", "out"}) {
    if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
  }
  const std::string graph_path = flags.GetString("graph");
  const std::string out_path = flags.GetString("out");
  const std::string truth_path = flags.GetString("truth");
  auto n = flags.GetInt("trajectories", 500);
  auto error_rate = flags.GetDouble("error-rate", 0.2);
  auto missing_rate = flags.GetDouble("missing-rate", 0.0);
  auto seed = flags.GetInt("seed", 42);
  auto window = flags.GetInt("window", 3600);
  auto max_len = flags.GetInt("max-path-len", 8);
  for (const Status& s :
       {n.status(), error_rate.status(), missing_rate.status(),
        seed.status(), window.status(), max_len.status()}) {
    if (!s.ok()) return FailWith(s);
  }
  // Negative counts would wrap to huge size_t values.
  if (*n < 0 || *max_len < 0) {
    return FailWith(Status::InvalidArgument(
        "--trajectories and --max-path-len must be >= 0"));
  }
  if (int code = RejectUnreadFlags(flags); code != 0) return code;

  auto graph = ReadTransitionGraphFile(graph_path);
  if (!graph.ok()) return FailWith(graph.status());
  SyntheticConfig config;
  config.num_trajectories = static_cast<size_t>(*n);
  config.record_error_rate = *error_rate;
  config.record_missing_rate = *missing_rate;
  config.seed = static_cast<uint64_t>(*seed);
  config.window_seconds = *window;
  config.max_path_len = static_cast<size_t>(*max_len);

  auto dataset = GenerateSyntheticDataset(*graph, config);
  if (!dataset.ok()) return FailWith(dataset.status());
  if (Status s = WriteRecordsCsvFile(out_path, *graph,
                                     dataset->ObservedRecords());
      !s.ok()) {
    return FailWith(s);
  }
  std::cout << "wrote " << dataset->records.size() << " records ("
            << dataset->NumEntities() << " entities, error rate "
            << ToFixed(dataset->RecordErrorRate(), 3) << ") to " << out_path
            << "\n";
  if (!truth_path.empty()) {
    if (Status s = WriteRecordsCsvFile(truth_path, *graph,
                                       dataset->TrueRecords());
        !s.ok()) {
      return FailWith(s);
    }
    std::cout << "wrote ground truth to " << truth_path << "\n";
  }
  return 0;
}

int RunStats(const FlagParser& flags) {
  for (const char* key : {"graph", "records"}) {
    if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
  }
  const std::string graph_path = flags.GetString("graph");
  const std::string records_path = flags.GetString("records");
  if (int code = RejectUnreadFlags(flags); code != 0) return code;
  auto graph = ReadTransitionGraphFile(graph_path);
  if (!graph.ok()) return FailWith(graph.status());
  auto records = ReadRecordsCsvFile(records_path, *graph);
  if (!records.ok()) return FailWith(records.status());
  TrajectorySet set = TrajectorySet::FromRecords(*records);
  std::cout << DescribeStats(ComputeStats(set, *graph));
  return 0;
}

int RunDot(const FlagParser& flags) {
  if (Status s = RequireFlag(flags, "graph"); !s.ok()) return FailWith(s);
  const std::string graph_path = flags.GetString("graph");
  if (int code = RejectUnreadFlags(flags); code != 0) return code;
  auto graph = ReadTransitionGraphFile(graph_path);
  if (!graph.ok()) return FailWith(graph.status());
  std::cout << ToDot(*graph);
  return 0;
}

int RunServe(const FlagParser& flags) {
  server::ServerOptions options;
  options.listen = flags.GetString("listen", "tcp:127.0.0.1:7077");
  options.load_dir = flags.GetString("load-dir");
  options.snapshot_dir = flags.GetString("snapshot-dir");
  const std::string failpoints = flags.GetString("failpoints");
  auto max_inflight = flags.GetInt("max-inflight", 64);
  auto default_deadline = flags.GetInt("default-deadline-ms", 0);
  auto threads = ThreadsFromFlags(flags);
  for (const Status& s :
       {max_inflight.status(), default_deadline.status(), threads.status()}) {
    if (!s.ok()) return FailWith(s);
  }
  if (*max_inflight < 0) {
    return FailWith(Status::InvalidArgument("--max-inflight must be >= 0"));
  }
  auto metrics = MetricsFromFlags(flags);
  if (!metrics.ok()) return FailWith(metrics.status());
  if (int code = RejectUnreadFlags(flags); code != 0) return code;
  options.max_inflight = static_cast<uint64_t>(*max_inflight);
  options.default_deadline_ms = *default_deadline;
  options.exec_threads = *threads;
  if (Status s = fault::ArmFromString(failpoints); !s.ok()) return FailWith(s);

  if (!metrics->path.empty()) obs::SetEnabled(true);
  auto scraper = StartScraper(*metrics);
  if (!scraper.ok()) return FailWith(scraper.status());

  auto srv = server::IdRepairServer::Start(std::move(options));
  if (!srv.ok()) return FailWith(srv.status());
  std::cout << "idrepaird listening at " << (*srv)->address() << " ("
            << (*srv)->registry().size() << " graphs loaded)" << std::endl;
  (*srv)->WaitForShutdownRequest();
  server::AdmissionStats admission = (*srv)->admission();
  (*srv)->Stop();
  std::cout << "idrepaird stopped: admitted=" << admission.admitted
            << " rejected=" << admission.rejected
            << " completed=" << admission.completed << "\n";
  if (Status s = FinishMetrics(*metrics, scraper->get()); !s.ok()) {
    return FailWith(s);
  }
  return 0;
}

Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

int RunClient(const std::string& action, const FlagParser& flags) {
  if (Status s = RequireFlag(flags, "connect"); !s.ok()) return FailWith(s);
  const std::string address = flags.GetString("connect");
  // Each action reads all its flags first; this connects only after.
  auto connect = [&]() { return server::RepairClient::Connect(address); };

  if (action == "register") {
    for (const char* key : {"name", "graph"}) {
      if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
    }
    server::RegisterGraphRequest req;
    req.name = flags.GetString("name");
    const std::string graph_path = flags.GetString("graph");
    const std::string corpus_path = flags.GetString("records");
    auto options = OptionsFromFlags(flags);
    if (!options.ok()) return FailWith(options.status());
    if (int code = RejectUnreadFlags(flags); code != 0) return code;
    options->similarity = nullptr;  // never travels the wire
    req.options = *options;
    auto graph_text = ReadFileText(graph_path);
    if (!graph_text.ok()) return FailWith(graph_text.status());
    req.graph_text = std::move(*graph_text);
    if (!corpus_path.empty()) {
      std::istringstream graph_stream(req.graph_text);
      auto graph = ReadTransitionGraph(graph_stream);
      if (!graph.ok()) return FailWith(graph.status());
      auto corpus = ReadRecordsCsvFile(corpus_path, *graph);
      if (!corpus.ok()) return FailWith(corpus.status());
      req.corpus = std::move(*corpus);
    }
    auto client = connect();
    if (!client.ok()) return FailWith(client.status());
    auto reply = client->RegisterGraph(req);
    if (!reply.ok()) return FailWith(reply.status());
    std::cout << "registered '" << req.name << "' version " << reply->version
              << " (" << req.corpus.size() << " corpus records)\n";
    return 0;
  }

  if (action == "repair") {
    if (Status s = RequireFlag(flags, "name"); !s.ok()) return FailWith(s);
    server::RepairRequest req;
    req.name = flags.GetString("name");
    auto budget = flags.GetInt("budget-ms", 0);
    if (!budget.ok()) return FailWith(budget.status());
    req.budget_ms = *budget;
    req.use_corpus = flags.GetBool("use-corpus");
    std::string records_path;  // a corpus repair sends no records
    if (!req.use_corpus) {
      for (const char* key : {"records", "graph"}) {
        if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
      }
      records_path = flags.GetString("records");
    }
    const std::string graph_path = flags.GetString("graph");
    const std::string out_path = flags.GetString("out");
    if (!out_path.empty() && graph_path.empty()) {
      return FailWith(Status::InvalidArgument(
          "--out needs --graph to render location names"));
    }
    if (int code = RejectUnreadFlags(flags); code != 0) return code;
    std::unique_ptr<TransitionGraph> graph;  // only needed for record CSV I/O
    if (!graph_path.empty()) {
      auto loaded = ReadTransitionGraphFile(graph_path);
      if (!loaded.ok()) return FailWith(loaded.status());
      graph = std::make_unique<TransitionGraph>(std::move(*loaded));
    }
    if (!req.use_corpus) {
      auto records = ReadRecordsCsvFile(records_path, *graph);
      if (!records.ok()) return FailWith(records.status());
      req.batches.push_back(std::move(*records));
    }
    auto client = connect();
    if (!client.ok()) return FailWith(client.status());
    auto reply = client->Repair(req);
    if (!reply.ok()) return FailWith(reply.status());
    size_t batch_index = 0;
    for (const server::BatchReply& batch : reply->batches) {
      std::cout << "batch " << batch_index++ << ": candidates="
                << batch.num_candidates << " selected=" << batch.num_selected
                << " rewrites=" << batch.num_rewrites << " records="
                << batch.repaired.size() << " time="
                << ToFixed(batch.seconds_total * 1e3, 1) << " ms";
      if (!batch.completion.ok()) std::cout << " (" << batch.completion << ")";
      std::cout << "\n";
    }
    if (!out_path.empty()) {
      std::vector<TrackingRecord> all;
      for (const server::BatchReply& batch : reply->batches) {
        all.insert(all.end(), batch.repaired.begin(), batch.repaired.end());
      }
      if (Status s = WriteRecordsCsvFile(out_path, *graph, all); !s.ok()) {
        return FailWith(s);
      }
      std::cout << "wrote " << all.size() << " records to " << out_path
                << "\n";
    }
    return 0;
  }

  if (action == "snapshot") {
    server::SnapshotRequest req;
    req.dir = flags.GetString("dir");
    if (int code = RejectUnreadFlags(flags); code != 0) return code;
    auto client = connect();
    if (!client.ok()) return FailWith(client.status());
    auto reply = client->Snapshot(req);
    if (!reply.ok()) return FailWith(reply.status());
    std::cout << "saved " << reply->num_saved << " snapshots to "
              << reply->dir << "\n";
    return 0;
  }

  if (action == "stats") {
    server::StatsRequest req;
    req.include_prometheus = flags.GetBool("prometheus");
    if (int code = RejectUnreadFlags(flags); code != 0) return code;
    auto client = connect();
    if (!client.ok()) return FailWith(client.status());
    auto reply = client->Stats(req);
    if (!reply.ok()) return FailWith(reply.status());
    for (const auto& entry : reply->entries) {
      std::cout << entry.name << " v" << entry.version << ": "
                << entry.num_locations << " locations, " << entry.num_edges
                << " edges, " << entry.corpus_trajectories
                << " corpus trajectories, " << entry.use_count
                << " in use\n";
    }
    const server::AdmissionStats& a = reply->admission;
    std::cout << "admission: admitted=" << a.admitted << " rejected="
              << a.rejected << " completed=" << a.completed << " inflight="
              << a.inflight << " queue_peak=" << a.queue_peak
              << " max_inflight=" << a.max_inflight << "\n";
    if (!reply->prometheus.empty()) std::cout << reply->prometheus;
    return 0;
  }

  if (action == "shutdown") {
    if (int code = RejectUnreadFlags(flags); code != 0) return code;
    auto client = connect();
    if (!client.ok()) return FailWith(client.status());
    if (Status s = client->Shutdown(); !s.ok()) return FailWith(s);
    std::cout << "shutdown acknowledged\n";
    return 0;
  }

  std::cerr << "unknown client action '" << action << "'\n" << kUsage;
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  std::string command = argv[1];
  if (command == "client") {
    if (argc < 3) {
      std::cerr << "usage: idrepair_cli client "
                   "<register|repair|snapshot|stats|shutdown> --connect "
                   "ADDR [flags]\n";
      return 2;
    }
    auto flags = FlagParser::Parse(argc - 3, argv + 3,
                                   {"no-lig", "no-prune", "use-corpus",
                                    "prometheus"});
    if (!flags.ok()) return FailWith(flags.status());
    return RunClient(argv[2], *flags);
  }
  auto flags = FlagParser::Parse(
      argc - 2, argv + 2,
      {"no-lig", "no-prune", "explain", "failpoints-status"});
  if (!flags.ok()) return FailWith(flags.status());
  if (command == "repair") return RunRepair(*flags);
  if (command == "generate") return RunGenerate(*flags);
  if (command == "stats") return RunStats(*flags);
  if (command == "dot") return RunDot(*flags);
  if (command == "serve") return RunServe(*flags);
  std::cerr << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace
}  // namespace idrepair

int main(int argc, char** argv) { return idrepair::Main(argc, argv); }

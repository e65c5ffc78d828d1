// idrepair_bench: the end-to-end metrics of one workload, measured from
// outside through the public entry points with tracing and obs off.
//
//   idrepair_bench --workload W [--seed S] [--seconds N] [--smoke]
//                  [--out result.json]
//
// Every workload reports the same metrics (README.md defines each one per
// workload): setup_s, latency_ms_p50, records_per_s, f_measure, set_dist,
// peak_rss_mb. The last stdout line is the result object.
//
// The timed loops run a fixed amount of work sized from --seconds (see
// Work), so two commits measured with the same --seconds run the same
// operations. Set-up is sampled throughout the timed loop rather than once
// before it: on a shared virtual machine the speed drifts over seconds, and
// a set-up measured in one short burst would see a different machine than
// the loop it precedes.
#include <filesystem>
#include <iostream>
#include <optional>

#include "daemon.h"
#include "harness.h"
#include "repair/repairer.h"
#include "workloads.h"

using namespace idrepair;
using namespace idrepair::bench;

namespace {

void EndToEnd(Report& report, const std::vector<double>& setup_s,
              const std::vector<double>& latency_s, double records_per_s,
              size_t throughput_samples, const Quality& quality,
              double peak_rss_mb) {
  report.Metric("setup_s", Median(setup_s), "s", setup_s.size());
  report.Metric("latency_ms_p50", Median(latency_s) * 1e3, "ms",
                latency_s.size());
  report.Metric("records_per_s", records_per_s, "records/s",
                throughput_samples);
  report.Metric("f_measure", quality.FMeasure(), "ratio", 1);
  report.Metric("set_dist", quality.SetDistance(), "ratio", 1);
  report.Metric("peak_rss_mb", peak_rss_mb, "MB", 1);
}

bool SameResult(const RepairResult& a, const RepairResult& b) {
  return a.selected == b.selected && a.rewrites == b.rewrites &&
         a.total_effectiveness == b.total_effectiveness;
}

/// Batch: set-up is ingest (TrajectorySet::FromRecords), engine
/// construction and a Repair of the empty set, which builds the lazy
/// PredicateEvaluator. The operation is IdRepairer::Repair of the input.
/// Every call gets a freshly set-up engine (the engine caches nothing else
/// between calls), so each call contributes one set-up sample.
Status RunBatch(const Args& args, Report& report) {
  auto w = MakeBatchWorkload(args);
  IDREPAIR_RETURN_NOT_OK(w.status());
  std::vector<double> setup_s;
  std::optional<TrajectorySet> set;
  std::optional<IdRepairer> engine;
  auto set_up = [&]() -> Status {
    set.reset();
    engine.reset();
    int64_t t0 = NowNs();
    set.emplace(TrajectorySet::FromRecords(w->records));
    engine.emplace(w->dataset.graph, w->options);
    auto warm = engine->Repair(TrajectorySet());
    setup_s.push_back(SecondsSince(t0));
    return warm.status();
  };
  // The first repair of a process pays for thread start-up and allocator
  // growth; it is not what a long-running caller sees, so it is untimed.
  IDREPAIR_RETURN_NOT_OK(set_up());
  IDREPAIR_RETURN_NOT_OK(engine->Repair(*set).status());
  setup_s.clear();

  std::vector<double> latency_s;
  std::optional<RepairResult> first;
  size_t failed = 0;
  bool repeatable = true;
  const Work work(args, Work::Scaled(args, OpsPerSecond(args.workload)));
  while (work.More(latency_s.size())) {
    IDREPAIR_RETURN_NOT_OK(set_up());
    int64_t t0 = NowNs();
    auto result = engine->Repair(*set);
    latency_s.push_back(SecondsSince(t0));
    if (!result.ok() || !result->completion.ok()) {
      ++failed;
    } else if (!first.has_value()) {
      first.emplace(std::move(result).value());
    } else {
      repeatable = repeatable && SameResult(*first, *result);
    }
  }
  const double peak_rss_mb = SelfPeakRssMb();
  report.Ops(latency_s.size(), failed);
  report.Gate("complete_repair", first.has_value(),
              "no Repair call completed");
  if (!first.has_value()) return Status::OK();
  std::vector<TrackingRecord> output = Flatten(first->repaired);
  report.Gate("records_conserved", ConservesRecords(w->records, output),
              "repaired set lost or invented records");
  report.Gate("repeat_calls_identical", repeatable,
              "Repair of the same input changed between calls");
  EndToEnd(report, setup_s, latency_s,
           static_cast<double>(set->total_records()) / Median(latency_s),
           latency_s.size(), Score(w->dataset, output), peak_rss_mb);
  return Status::OK();
}

/// Stream: set-up is the StreamingRepairer constructor; the operation is
/// one Append; throughput is records over a whole replay (appends, polls
/// and Finish).
Status RunStream(const Args& args, Report& report) {
  auto w = MakeStreamWorkload(args);
  IDREPAIR_RETURN_NOT_OK(w.status());
  // One construction takes well under a microsecond, so each sample is the
  // mean over a block of constructions; a few blocks go before each replay.
  std::vector<double> setup_s;
  const int block = args.smoke ? 1 : 20000;
  auto set_up = [&] {
    for (int i = 0; i < (args.smoke ? 1 : 5); ++i) {
      int64_t t0 = NowNs();
      for (int j = 0; j < block; ++j) {
        StreamingRepairer stream(w->dataset.graph, w->options,
                                 StreamOptions{});
      }
      setup_s.push_back(SecondsSince(t0) / block);
    }
  };

  std::vector<double> append_s;
  std::vector<double> replay_records_per_s;
  std::vector<TrackingRecord> first;
  size_t rejected = 0;
  bool repeatable = true;
  const Work work(args, Work::Scaled(args, OpsPerSecond(args.workload)));
  while (work.More(replay_records_per_s.size())) {
    set_up();
    Replay replay = RunReplay(*w, nullptr, false);
    append_s.insert(append_s.end(), replay.append_s.begin(),
                    replay.append_s.end());
    replay_records_per_s.push_back(static_cast<double>(w->records.size()) /
                                   replay.wall_s);
    rejected += replay.rejected;
    std::vector<TrackingRecord> output = Flatten(replay.emitted);
    if (first.empty()) {
      first = std::move(output);
    } else {
      repeatable = repeatable && output == first;
    }
  }
  const double peak_rss_mb = SelfPeakRssMb();
  report.Ops(append_s.size(), rejected);
  report.Gate("records_conserved", ConservesRecords(w->records, first),
              "the stream lost or invented records");
  report.Gate("repeat_replays_identical", repeatable,
              "two replays of the same stream emitted different output");
  EndToEnd(report, setup_s, append_s, Median(replay_records_per_s),
           replay_records_per_s.size(), Score(w->dataset, first),
           peak_rss_mb);
  return Status::OK();
}

/// Daemon: set-up is spawn until the last RegisterGraph reply; the
/// operation is one request round trip; peak RSS is the daemon's. The
/// client loop runs in segments, and between two segments a second daemon
/// is started and stopped beside the idle first one as a set-up sample.
Status RunDaemon(const Args& args, Report& report) {
  auto tenants = MakeTenants(args);
  IDREPAIR_RETURN_NOT_OK(tenants.status());
  constexpr int kDaemonThreads = 2;
  constexpr int kClients = 2;
  constexpr size_t kSegments = 16;
  const size_t per_client =
      RequestsPerClient(args, tenants->size(), kClients, kSegments);
  std::vector<double> setup_s(1);
  auto started = Daemon::Start(SocketPathFor(args, 0), kDaemonThreads,
                               *tenants, &setup_s[0]);
  IDREPAIR_RETURN_NOT_OK(started.status());
  std::unique_ptr<Daemon> daemon = std::move(started).value();

  // One untimed request per tenant first: it checks every tenant's reply
  // against the local repair before any timing, and warms the daemon.
  auto check = RunClients(daemon->address(), *tenants, 1, tenants->size(),
                          nullptr);
  IDREPAIR_RETURN_NOT_OK(check.status());
  ClientRun run;
  const Work work(args, kSegments);
  for (size_t i = 0; work.More(i); ++i) {
    auto segment = RunClients(daemon->address(), *tenants, kClients,
                              per_client, nullptr);
    IDREPAIR_RETURN_NOT_OK(segment.status());
    run.Add(*segment);
    double s = 0.0;
    auto side = Daemon::Start(SocketPathFor(args, 1), kDaemonThreads,
                              *tenants, &s);
    IDREPAIR_RETURN_NOT_OK(side.status());
    IDREPAIR_RETURN_NOT_OK((*side)->Stop());
    setup_s.push_back(s);
  }
  double peak_rss_mb = daemon->PeakRssMb();
  Status stopped = daemon->Stop();
  const size_t mismatched = check->mismatched + run.mismatched;
  report.Ops(check->latency_s.size() + run.latency_s.size(),
             check->failed + run.failed + mismatched);
  report.Gate("replies_match_local_repair", mismatched == 0,
              std::to_string(mismatched) +
                  " replies differ from a local IdRepairer run");
  report.Gate("daemon_stops_cleanly", stopped.ok(), stopped.ToString());
  Quality quality;
  bool conserved = true;
  for (const Tenant& t : *tenants) {
    conserved = conserved && ConservesRecords(t.batch, t.expected);
    quality += Score(t.dataset, t.expected);
  }
  report.Gate("records_conserved", conserved,
              "a tenant's repair lost or invented records");
  EndToEnd(report, setup_s, run.latency_s,
           static_cast<double>(run.records) / run.wall_s, 1, quality,
           peak_rss_mb);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n"
              << "usage: idrepair_bench --workload W [--seed S] "
                 "[--seconds N] [--smoke] [--out FILE]\n";
    return 2;
  }
  if (!args->out.empty()) {
    std::filesystem::path dir = std::filesystem::path(args->out).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
  }
  Report report(*args, /*traced=*/false);
  Status status;
  if (args->workload == "stream_replay") {
    status = RunStream(*args, report);
  } else if (args->workload == "daemon_catalog") {
    status = RunDaemon(*args, report);
  } else {
    status = RunBatch(*args, report);
  }
  if (!status.ok()) {
    std::cerr << args->workload << ": " << status << "\n";
    return 1;
  }
  return report.Finish(nullptr);
}

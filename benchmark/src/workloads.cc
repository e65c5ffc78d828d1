#include "workloads.h"

#include <algorithm>
#include <array>
#include <utility>
#include <sstream>
#include <tuple>

#include "common/rng.h"
#include "gen/real_like.h"
#include "gen/scenario_catalog.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "repair/repairer.h"

namespace idrepair::bench {

namespace {

/// The paper's real-dataset parameters (§6.1.1), used by every workload on
/// the real-like graph.
RepairOptions RealLikeOptions(int threads) {
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.zeta = 4;
  options.lambda = 0.5;
  options.exec.num_threads = threads;
  return options;
}

/// Turns the generated dataset into the seed's input without changing its
/// repair structure: a seeded permutation of the ID alphabet (within lower
/// case, upper case and digits — edit distances, hence every similarity,
/// are invariant under it) and a shift of the timeline by whole days (the
/// LIG time bins stay aligned). Seed 0 is the identity.
void ApplySeed(uint64_t seed, Dataset* dataset) {
  if (seed == 0) return;
  std::array<char, 256> alphabet;
  for (int c = 0; c < 256; ++c) alphabet[c] = static_cast<char>(c);
  Rng rng(seed);
  for (auto [lo, hi] : {std::pair{'a', 'z'}, {'A', 'Z'}, {'0', '9'}}) {
    for (int i = hi; i > lo; --i) {  // Fisher-Yates over [lo, hi]
      int j = lo + static_cast<int>(rng.UniformIndex(
                       static_cast<size_t>(i - lo + 1)));
      std::swap(alphabet[static_cast<unsigned char>(i)],
                alphabet[static_cast<unsigned char>(j)]);
    }
  }
  auto permute = [&](std::string& id) {
    for (char& c : id) c = alphabet[static_cast<unsigned char>(c)];
  };
  const Timestamp shift = static_cast<Timestamp>(seed % 3650) * 86400;
  for (GroundTruthRecord& r : dataset->records) {
    permute(r.observed_id);
    permute(r.true_id);
    r.ts += shift;
  }
}

}  // namespace

double OpsPerSecond(const std::string& workload) {
  // The inverse of each operation's time, set-up included, on the 4-vCPU
  // machine of the README's first numbers, rounded down a little.
  if (workload == "giant_dense") return 2.5;    // ~360 ms per call
  if (workload == "sparse_fleet") return 3.2;   // ~265 ms
  if (workload == "dmin_conflict") return 1.7;  // ~550 ms
  if (workload == "stream_replay") return 0.3;  // ~3.4 s per replay
  return 80.0;  // daemon_catalog: 2 clients at ~20 ms per request (mean)
}

Result<BatchWorkload> MakeBatchWorkload(const Args& args) {
  // Sizes were chosen so each workload stresses a different layer (see
  // workloads.h); --smoke keeps the traffic density and shrinks the count.
  SyntheticConfig config;
  config.max_path_len = 4;
  RepairOptions options = RealLikeOptions(args.threads);
  if (args.workload == "giant_dense") {
    config.num_trajectories = 1000;
    config.window_seconds = 3600;
    config.seed = 2026;
  } else if (args.workload == "sparse_fleet") {
    config.num_trajectories = 16000;
    config.window_seconds = 8 * 7 * 86400;
    config.seed = 2025;
  } else if (args.workload == "dmin_conflict") {
    config.num_trajectories = 300;
    config.window_seconds = 3600;
    config.seed = 2026;
    options.selection = SelectionAlgorithm::kDmin;
  } else {
    return Status::InvalidArgument("not a batch workload: " + args.workload);
  }
  if (args.smoke) {
    config.num_trajectories /= 20;
    config.window_seconds /= 20;
  }
  auto dataset = GenerateSyntheticDataset(MakeRealLikeGraph(), config);
  if (!dataset.ok()) return dataset.status();
  ApplySeed(args.seed, &*dataset);
  BatchWorkload w{std::move(dataset).value(), {}, options};
  w.records = w.dataset.ObservedRecords();
  return w;
}

Result<StreamWorkload> MakeStreamWorkload(const Args& args) {
  auto dataset = MakeScaledRealLikeDataset(args.smoke ? 600 : 12000, 0.2, 42);
  if (!dataset.ok()) return dataset.status();
  ApplySeed(args.seed, &*dataset);
  StreamWorkload w{std::move(dataset).value(), {},
                   RealLikeOptions(args.threads)};
  w.records = w.dataset.ObservedRecords();
  // Arrival order, ties broken as the engine's own batch adapter does.
  std::stable_sort(w.records.begin(), w.records.end(),
                   [](const TrackingRecord& a, const TrackingRecord& b) {
                     return std::tie(a.ts, a.id, a.loc) <
                            std::tie(b.ts, b.id, b.loc);
                   });
  return w;
}

Replay RunReplay(const StreamWorkload& w, obs::TraceSink* sink,
                 bool capture_windows) {
  Replay out;
  out.append_s.reserve(w.records.size());
  const double eta = static_cast<double>(w.options.eta);
  int64_t start = NowNs();
  obs::TraceSpan replay(sink, "stream.replay");
  StreamingRepairer stream(w.dataset.graph, w.options, StreamOptions{});
  stream.set_capture_windows(capture_windows);
  Timestamp last_poll = w.records.empty() ? 0 : w.records.front().ts;
  for (size_t i = 0; i < w.records.size(); ++i) {
    int64_t t0 = NowNs();
    Status appended;
    {
      obs::TraceSpan span(sink, "stream.append", i);
      appended = stream.Append(w.records[i]);
    }
    out.append_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!appended.ok()) ++out.rejected;
    out.pending_max = std::max(out.pending_max, stream.pending_records());
    if (stream.watermark() - last_poll > w.options.eta) {
      int64_t p0 = NowNs();
      std::vector<Trajectory> got;
      {
        obs::TraceSpan span(sink, "stream.poll", out.poll_s.size());
        got = stream.Poll();
      }
      out.poll_s.push_back(static_cast<double>(NowNs() - p0) * 1e-9);
      for (const Trajectory& t : got) {
        out.emit_lag_eta.push_back(
            static_cast<double>(stream.watermark() - t.end_time()) / eta);
      }
      out.emitted.insert(out.emitted.end(),
                         std::make_move_iterator(got.begin()),
                         std::make_move_iterator(got.end()));
      last_poll = stream.watermark();
    }
  }
  int64_t f0 = NowNs();
  std::vector<Trajectory> tail;
  {
    obs::TraceSpan span(sink, "stream.finish");
    tail = stream.Finish();
  }
  int64_t end = NowNs();
  out.finish_s = static_cast<double>(end - f0) * 1e-9;
  out.wall_s = static_cast<double>(end - start) * 1e-9;
  out.emitted.insert(out.emitted.end(), std::make_move_iterator(tail.begin()),
                     std::make_move_iterator(tail.end()));
  out.generation_runs = stream.generation_runs();
  out.dirty_components = stream.dirty_components_seen();
  out.records_reused = stream.records_reused();
  if (capture_windows) out.windows = stream.captured_windows();
  return out;
}

Result<std::vector<Tenant>> MakeTenants(const Args& args) {
  std::vector<Tenant> tenants;
  for (ScenarioCatalogEntry& entry : ScenarioCatalog(/*light=*/args.smoke)) {
    if (args.smoke) entry.traffic.num_trips /= 10;
    auto dataset = BuildScenarioDataset(entry);
    if (!dataset.ok()) return dataset.status();
    ApplySeed(args.seed, &*dataset);
    Tenant t;
    t.name = entry.name;
    t.dataset = std::move(dataset).value();
    t.options.theta = entry.theta;
    t.options.eta = entry.eta;
    t.options.zeta = 4;
    t.options.lambda = 0.5;
    t.options.exec.num_threads = args.threads;
    std::ostringstream text;
    IDREPAIR_RETURN_NOT_OK(WriteTransitionGraph(text, t.dataset.graph));
    t.graph_text = std::move(text).str();
    t.batch = t.dataset.ObservedRecords();
    auto local = IdRepairer(t.dataset.graph, t.options)
                     .Repair(TrajectorySet::FromRecords(t.batch));
    if (!local.ok()) return local.status();
    if (!local->completion.ok()) return local->completion;
    t.expected = Flatten(local->repaired);
    tenants.push_back(std::move(t));
  }
  return tenants;
}

}  // namespace idrepair::bench

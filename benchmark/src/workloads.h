// The five workloads: their inputs, built from the --seed argument, and the
// closed loops that push them through idrepair's public entry points.
//
//   giant_dense    one dense chain component; EMAX. Candidate generation
//                  dominates, decomposition is bypassed.
//   sparse_fleet   thousands of tiny components; EMAX. Per-component
//                  overhead, Gm build and apply; no heavy cliques.
//   dmin_conflict  a small input with a huge repair graph; DMIN. Selection
//                  (Gr build + commit loop) dominates, generation is cheap.
//   stream_replay  StreamingRepairer Append/Poll/Finish over a time-sorted
//                  record stream: writes interleaved with component repairs.
//   daemon_catalog the seven catalog tenants behind a child `idrepair_cli
//                  serve`, two closed-loop unix-socket clients.
//
// Each workload's input shape is generated from a fixed generator seed —
// the configuration it was sized with. --seed turns that shape into a
// different input with the same repair structure: it permutes the ID
// alphabet and shifts the timeline by whole days (seed 0 changes nothing).
// The cost of these inputs is heavy-tailed in the generator seed (the
// repair graph of dmin_conflict varies by more than 2x across generator
// seeds), so a seed that reshaped the input would move every timing by far
// more than a regression bound.
#ifndef IDREPAIR_BENCHMARK_WORKLOADS_H_
#define IDREPAIR_BENCHMARK_WORKLOADS_H_

#include <string>
#include <vector>

#include "gen/dataset.h"
#include "harness.h"
#include "repair/options.h"
#include "stream/streaming_repairer.h"
#include "traj/tracking_record.h"
#include "traj/trajectory.h"

namespace idrepair::bench {

/// How many of a workload's timed operations (Repair calls, whole replays,
/// daemon requests) the end-to-end run makes per second of --seconds.
double OpsPerSecond(const std::string& workload);

/// Input of giant_dense, sparse_fleet or dmin_conflict.
struct BatchWorkload {
  Dataset dataset;                      // graph + ground truth
  std::vector<TrackingRecord> records;  // observed records: the input
  RepairOptions options;
};
Result<BatchWorkload> MakeBatchWorkload(const Args& args);

/// Input of stream_replay: records in arrival (timestamp) order.
struct StreamWorkload {
  Dataset dataset;
  std::vector<TrackingRecord> records;
  RepairOptions options;
};
Result<StreamWorkload> MakeStreamWorkload(const Args& args);

/// One closed-loop replay of a StreamWorkload through a fresh
/// StreamingRepairer: Append every record, Poll whenever the watermark has
/// moved more than η since the last poll, then Finish. With a `sink`, the
/// replay and each Append (arg: record index), Poll (arg: poll index) and
/// the Finish are spans.
struct Replay {
  std::vector<Trajectory> emitted;
  double wall_s = 0.0;  // constructor to Finish, inclusive
  std::vector<double> append_s;
  std::vector<double> poll_s;
  double finish_s = 0.0;
  size_t rejected = 0;  // appends that returned non-OK
  size_t generation_runs = 0;
  size_t dirty_components = 0;
  size_t records_reused = 0;
  size_t pending_max = 0;
  /// Per trajectory a Poll emitted: watermark minus its last record, in η.
  std::vector<double> emit_lag_eta;
  /// Filled when `capture_windows` is set.
  std::vector<StreamingRepairer::WindowRepair> windows;
};
Replay RunReplay(const StreamWorkload& workload, obs::TraceSink* sink,
                 bool capture_windows);

/// One daemon tenant: a catalog scenario registered under its name, and the
/// one batch each request for it carries.
struct Tenant {
  std::string name;
  Dataset dataset;
  RepairOptions options;  // the persistable fields travel in RegisterGraph
  std::string graph_text;
  std::vector<TrackingRecord> batch;
  /// A local IdRepairer run over `batch`, flattened like a daemon reply —
  /// every reply must match it byte for byte.
  std::vector<TrackingRecord> expected;
};
Result<std::vector<Tenant>> MakeTenants(const Args& args);

}  // namespace idrepair::bench

#endif  // IDREPAIR_BENCHMARK_WORKLOADS_H_

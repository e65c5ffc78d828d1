// Shared plumbing of the two benchmark binaries: command line, the fixed
// work of a timed loop, sample statistics, span totals of a trace, result
// output (stdout lines + the result file with its provenance), and the
// output checks every workload applies — record conservation, and the
// f-measure and trajectory-set distance against ground truth.
#ifndef IDREPAIR_BENCHMARK_HARNESS_H_
#define IDREPAIR_BENCHMARK_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "gen/dataset.h"
#include "obs/trace.h"
#include "traj/tracking_record.h"
#include "traj/trajectory.h"
#include "traj/trajectory_set.h"

namespace idrepair::bench {

/// The five workloads, in the order run.sh runs them.
inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "giant_dense", "sparse_fleet", "dmin_conflict", "stream_replay",
      "daemon_catalog"};
  return names;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  /// Sizes the work of the timed loops (see Work): about this many seconds
  /// of it on the machine of the README's first numbers. The work depends
  /// on this value alone, never on how fast the code under test runs.
  double seconds = 12.0;
  /// About 1/20 of the input scale and minimum repetitions (`seconds` is
  /// ignored), same gates.
  bool smoke = false;
  /// Result file (JSON with provenance); empty writes none. A traced run
  /// writes its Chrome trace next to it (`.trace.json`).
  std::string out;
  std::string git_sha = "unknown";
  bool git_dirty = false;
  /// T = DefaultThreads(), the exec.num_threads of every engine.
  int threads = 0;
};

Result<Args> ParseArgs(int argc, char** argv);

/// min(hardware threads, 4).
int DefaultThreads();

/// Quantile with linear interpolation between order statistics; 0 for an
/// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// The fixed work of one timed loop: a count of operations, a pure
/// function of the command line. Counts come from Scaled(), with rates
/// sized so a loop takes about --seconds on the machine of the README's
/// first numbers; every commit runs the same operations, however fast it
/// is.
class Work {
 public:
  /// `count` operations (at least one); exactly one under --smoke.
  Work(const Args& args, size_t count);

  /// `per_second` operations for each second of --seconds, rounded.
  static size_t Scaled(const Args& args, double per_second);

  /// True while fewer than `count` operations are done. A loop that has
  /// run for kMaxLoopSeconds stops early (after one operation), so a
  /// commit that runs many times slower still finishes and reports how
  /// slow it is.
  bool More(size_t done) const;

  static constexpr double kMaxLoopSeconds = 100.0;

 private:
  size_t count_;
  int64_t start_ns_;
};

/// Sum of durations and of self time (duration minus the time its direct
/// children cover) per span name, in first-seen order. A span's children
/// are the spans one level deeper on its thread that start inside it.
struct SpanTotals {
  std::string name;
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SpanTotals> TotalsByName(const obs::TraceSink& sink);

/// Collects one run's metrics and gates, then prints them — one
/// `workload metric value unit` line each, and the result object as the
/// last stdout line — and writes the result file.
class Report {
 public:
  Report(Args args, bool traced);

  /// `samples` is how many measurements the value summarizes.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  /// A correctness gate; any failed gate makes the run incorrect.
  void Gate(const std::string& name, bool ok, const std::string& detail = "");
  /// Operations issued, and how many of them failed (a non-OK result, a
  /// degraded completion, a rejected append, a shed request, a mismatch).
  void Ops(size_t attempted, size_t failed);

  /// Prints and writes everything — with a `sink`, also its span totals
  /// and, next to the result file, its Chrome trace. Returns the process
  /// exit code (0 only when every gate passed).
  int Finish(const obs::TraceSink* sink);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  struct GateResult {
    std::string name;
    bool ok;
    std::string detail;
  };

  bool correct() const;
  /// The "metrics" member of a result object.
  void WriteMetrics(JsonWriter& w, bool with_samples) const;

  Args args_;
  bool traced_;
  std::vector<Entry> metrics_;
  std::vector<GateResult> gates_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Records of trajectories, in trajectory order (the daemon's wire order).
std::vector<TrackingRecord> Flatten(const std::vector<Trajectory>& trajs);
inline std::vector<TrackingRecord> Flatten(const TrajectorySet& set) {
  return Flatten(set.trajectories());
}

/// True when `output` holds exactly the (location, timestamp) multiset of
/// `input`: nothing lost, nothing invented.
bool ConservesRecords(const std::vector<TrackingRecord>& input,
                      const std::vector<TrackingRecord>& output);

/// Repair quality against ground truth, poolable over several outputs.
///
/// The paper's precision/recall/f-measure (§6.1.2) counted over records:
/// erroneous = records whose observed ID is wrong, changed = records whose
/// output ID differs from the observed one, correct = changed records that
/// now carry their true ID.
///
/// The OSPA-style trajectory-set distance of src/eval (Bento & Zhu) between
/// the output's trajectories and the true ones, kept as its unnormalized
/// cost and cardinality so that pooling disjoint outputs gives the distance
/// of their union.
struct Quality {
  size_t erroneous = 0;
  size_t changed = 0;
  size_t correct = 0;
  double set_cost = 0.0;
  double set_size = 0.0;

  Quality& operator+=(const Quality& o) {
    erroneous += o.erroneous;
    changed += o.changed;
    correct += o.correct;
    set_cost += o.set_cost;
    set_size += o.set_size;
    return *this;
  }
  double FMeasure() const;
  double SetDistance() const {
    return set_size > 0.0 ? set_cost / set_size : 0.0;
  }
};

/// Scores `output` against the dataset it repairs. Records are matched on
/// (location, timestamp); where several share one, the counts use multiset
/// differences.
Quality Score(const Dataset& dataset,
              const std::vector<TrackingRecord>& output);

/// Peak resident set of this process, MB.
double SelfPeakRssMb();
/// VmHWM of process `pid` from /proc, MB; 0 when unreadable.
double ProcessPeakRssMb(pid_t pid);

}  // namespace idrepair::bench

#endif  // IDREPAIR_BENCHMARK_HARNESS_H_

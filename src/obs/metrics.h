#ifndef IDREPAIR_OBS_METRICS_H_
#define IDREPAIR_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace idrepair {
namespace obs {

/// How a metric's value relates to the work performed:
///  - kStable: a pure function of the input and the repair options
///    (excluding execution width) — clique counts, candidates, rewrites.
///    Stable metrics are byte-identical across thread counts, which the
///    obs tests enforce.
///  - kRuntime: depends on scheduling, timing, or the decomposition width —
///    latencies, queue depth, task counts. Real and useful, but
///    never compared across runs for equality.
enum class Stability { kStable, kRuntime };

/// Number of counter/histogram shards. Threads map onto shards by
/// ThreadId() % kMetricShards; two threads sharing a shard is correct
/// (atomics), just mildly contended. 16 cache lines per counter is the
/// memory price of uncontended increments on typical pools.
inline constexpr size_t kMetricShards = 16;

/// Index of the calling thread's shard.
inline size_t ThreadShard() {
  return static_cast<size_t>(ThreadId()) % kMetricShards;
}

/// A monotonically increasing count, sharded per thread. Increment is a
/// relaxed fetch_add on the caller's own shard — lock-free and (on distinct
/// shards) contention-free. Value() merges the shards; integer addition is
/// order-independent, so the merged value is exact and deterministic for
/// deterministic workloads.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    shards_[ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// Zeroes every shard (MetricsRegistry::Reset).
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kMetricShards];
};

/// A value that can go up and down (queue depth, buffered records). A
/// single relaxed atomic: gauges are set/adjusted far less often than
/// counters are bumped, so sharding would buy nothing.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// A fixed-bucket histogram, sharded per thread like Counter. Bucket
/// bounds are inclusive upper bounds in ascending order with an implicit
/// +Inf bucket at the end (Prometheus convention). The running sum is kept
/// in integer ticks of 1e-9 (nanosecond resolution for values in seconds),
/// so merging shards is integer addition — order-independent and therefore
/// byte-stable for deterministic observations, unlike a floating-point sum
/// whose association would depend on which thread observed which value.
class Histogram {
 public:
  /// Resolution of the integer sum: one tick = 1e-9 in observed units.
  static constexpr double kTicksPerUnit = 1e9;

  explicit Histogram(std::vector<double> bounds);

  /// Records one observation. Values above the last bound land in the
  /// implicit +Inf bucket. Not meaningful for values whose magnitude
  /// exceeds ~9e9 units (the sum would overflow its int64 tick count).
  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }

  /// Merged per-bucket counts; size is bounds().size() + 1 (+Inf last).
  std::vector<uint64_t> BucketCounts() const;

  uint64_t TotalCount() const;

  /// Merged sum of observations, reconstructed from integer ticks.
  double Sum() const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<int64_t> sum_ticks{0};
  };
  std::vector<double> bounds_;
  Shard shards_[kMetricShards];
};

/// `count` buckets growing geometrically from `start` by `factor`:
/// {start, start·factor, …}. The workhorse for latency histograms.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

/// Default bounds for phase/task latencies in seconds: 10 µs … ~84 s.
std::vector<double> DefaultLatencyBuckets();

/// One metric's merged state at a point in time (MetricsRegistry::Collect).
struct MetricSnapshot {
  enum class Type { kCounter, kGauge, kHistogram };
  std::string name;
  std::string help;
  Type type = Type::kCounter;
  Stability stability = Stability::kRuntime;
  uint64_t counter_value = 0;              // kCounter
  int64_t gauge_value = 0;                 // kGauge
  std::vector<double> bounds;              // kHistogram
  std::vector<uint64_t> bucket_counts;     // kHistogram, +Inf last
  uint64_t total_count = 0;                // kHistogram
  double sum = 0.0;                        // kHistogram
};

/// Registry of named instruments. Get* registers on first use and returns a
/// stable pointer; instrumentation sites cache that pointer so the hot path
/// never touches the registry lock. Snapshots merge the per-thread shards
/// in fixed shard order, and registrations live in a name-sorted map, so a
/// rendered snapshot is a deterministic function of the recorded values —
/// for Stability::kStable metrics that means byte-identical output at any
/// thread count.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

  /// Get-or-create. Help text is recorded on first registration. A name
  /// already registered as a different metric type is a programming bug:
  /// debug builds assert; release builds return a detached instrument so
  /// callers never receive nullptr.
  Counter* GetCounter(const std::string& name, Stability stability,
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, Stability stability,
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, Stability stability,
                          std::vector<double> bounds,
                          const std::string& help = "");

  /// Zeroes every registered instrument's value. Registrations (and the
  /// pointers instrumentation sites cached) stay valid — this resets the
  /// numbers, not the schema. Used by tests and long-lived servers that
  /// scrape-and-reset.
  void Reset();

  /// Merged state of every instrument, name-sorted. `include_runtime`
  /// false filters to Stability::kStable metrics (the cross-thread-count
  /// determinism surface).
  std::vector<MetricSnapshot> Collect(bool include_runtime = true) const;

  /// Prometheus text exposition format (text/plain; version=0.0.4):
  /// # HELP / # TYPE headers, histogram _bucket/_sum/_count series.
  std::string RenderPrometheus(bool include_runtime = true) const;

  size_t NumMetrics() const;

 private:
  struct Entry {
    MetricSnapshot::Type type;
    Stability stability;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  // Instruments handed out on a type mismatch; detached from rendering.
  std::vector<std::unique_ptr<Counter>> orphan_counters_;
  std::vector<std::unique_ptr<Gauge>> orphan_gauges_;
  std::vector<std::unique_ptr<Histogram>> orphan_histograms_;
};

}  // namespace obs
}  // namespace idrepair

#endif  // IDREPAIR_OBS_METRICS_H_

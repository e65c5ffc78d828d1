#ifndef IDREPAIR_OBS_OBS_H_
#define IDREPAIR_OBS_OBS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace idrepair {

/// Observability knobs, embedded in RepairOptions (RepairOptions::obs) so
/// every engine (batch, streaming, daemon) can switch instrumentation
/// on without separate plumbing. Observability never changes what a repair
/// computes — only what is recorded about it.
struct ObsOptions {
  /// Master switch. Off (the default) costs one relaxed atomic load and a
  /// predictable branch per instrumentation site — see the overhead
  /// contract in DESIGN.md §"Observability".
  bool enabled = false;

  /// Capacity, in events, of each per-thread trace ring buffer. Applies to
  /// ring buffers created after this option takes effect; a full ring
  /// overwrites its oldest events, so memory stays bounded no matter how
  /// long the process runs.
  size_t trace_capacity = 8192;

  /// Period, in milliseconds, of the background Prometheus scrape that
  /// appends to the --metrics-out file (MetricsScraper, scrape.h). 0 (the
  /// default) disables periodic scraping: the CLI then writes one final
  /// scrape at exit, exactly as before this knob existed. Consumed by the
  /// CLI and the daemon, never by the engines — like all obs knobs it can
  /// not change what a repair computes.
  int64_t metrics_interval_ms = 0;

  Status Validate() const {
    if (trace_capacity == 0) {
      return Status::InvalidArgument("obs.trace_capacity must be >= 1");
    }
    if (metrics_interval_ms < 0) {
      return Status::InvalidArgument("obs.metrics_interval_ms must be >= 0");
    }
    return Status::OK();
  }
};

namespace obs {

namespace internal {
/// The process-wide enable flag behind Enabled(). Relaxed is enough: the
/// flag only gates *whether* metrics are recorded, never guards data that
/// the reader dereferences.
inline std::atomic<bool> g_enabled{false};
}  // namespace internal

/// True when runtime observability is switched on. Every instrumentation
/// site branches on this; when false the site costs a single relaxed load.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the process-wide switch. Typically called once at startup (CLI) or
/// through ApplyOptions from an engine whose RepairOptions enable obs.
inline void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

/// Small dense id of the calling thread, assigned on first use. Shared by
/// the metric shard selection and the trace exporter's "tid" field, so a
/// thread's samples correlate across both systems.
uint32_t ThreadId();

/// Applies engine-level options to the process-wide observability state:
/// enables instrumentation and sizes the global trace sink's ring buffers.
/// A disabled ObsOptions is a no-op — it never *disables* globally, because
/// another concurrent run (or the CLI) may have switched obs on.
void ApplyOptions(const ObsOptions& options);

}  // namespace obs
}  // namespace idrepair

#endif  // IDREPAIR_OBS_OBS_H_

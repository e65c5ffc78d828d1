#ifndef IDREPAIR_OBS_OBS_H_
#define IDREPAIR_OBS_OBS_H_

#include <atomic>
#include <cstdint>

namespace idrepair {
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

/// Flips the process-wide switch. Called by the process that owns the
/// exports (the CLI's repair and serve commands, a test, a bench), never by
/// an engine: observability never changes what a repair computes, so it is
/// not a RepairOptions field.
inline void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

/// Small dense id of the calling thread, assigned on first use. Shared by
/// the metric shard selection and the trace exporter's "tid" field, so a
/// thread's samples correlate across both systems.
uint32_t ThreadId();

}  // namespace obs
}  // namespace idrepair

#endif  // IDREPAIR_OBS_OBS_H_

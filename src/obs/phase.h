#ifndef IDREPAIR_OBS_PHASE_H_
#define IDREPAIR_OBS_PHASE_H_

#include "common/stopwatch.h"
#include "obs/trace.h"

namespace idrepair {
namespace obs {

/// RAII phase timer: the single source of truth for per-phase timings.
/// On destruction it
///   1. adds elapsed wall seconds to *wall_seconds (a RepairStats field),
///   2. adds elapsed process-CPU seconds to *cpu_seconds (optional),
///   3. closes a trace span named `name` (only when obs is enabled).
/// Steps 1–2 always run — RepairStats keeps its timings whether or not
/// observability is on. The phase histograms are not fed here: RunRecorder
/// folds the finished RepairStats fields into them, so each number is
/// measured once and recorded once.
class PhaseScope {
 public:
  PhaseScope(const char* name, double* wall_seconds,
             double* cpu_seconds = nullptr)
      : wall_out_(wall_seconds), cpu_out_(cpu_seconds), span_(name) {}

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() {
    *wall_out_ += watch_.ElapsedSeconds();
    if (cpu_out_ != nullptr) *cpu_out_ += cpu_watch_.ElapsedSeconds();
    // span_ destructs after this body, ending the trace span.
  }

 private:
  double* wall_out_;
  double* cpu_out_;
  Stopwatch watch_;
  CpuStopwatch cpu_watch_;
  TraceSpan span_;
};

}  // namespace obs
}  // namespace idrepair

#endif  // IDREPAIR_OBS_PHASE_H_

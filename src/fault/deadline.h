#ifndef IDREPAIR_FAULT_DEADLINE_H_
#define IDREPAIR_FAULT_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "fault/failpoint.h"

namespace idrepair {
namespace fault {

/// The failpoint evaluated by every enabled Deadline check. Arming it (e.g.
/// `fault.deadline.expire=error,on_hit=3`) forces the Nth deadline check of
/// a run to report expiry, giving tests deterministic partial results
/// without wall-clock races. Only consulted when a deadline is actually
/// enabled, so arming it never affects runs with deadline_ms == 0.
inline constexpr char kDeadlineExpireSite[] = "fault.deadline.expire";

/// A budget for one repair run: an absolute steady-clock expiry derived from
/// RepairOptions::deadline_ms at Repair() entry. Engines probe it at safe
/// interruption boundaries (phase / selection-commit / replay-batch
/// granularity) and degrade to a well-formed partial result when it reports
/// expiry — they never tear down mid-mutation.
///
/// Expiry latches: once any check (wall-clock or forced) observes it, every
/// later check on this instance reports expired too, so a one-shot forced
/// fire degrades the whole remainder of the run exactly like a real
/// wall-clock expiry would.
///
/// Copyable and cheap: a disabled deadline's Check() is a single branch.
class Deadline {
 public:
  Deadline() = default;
  Deadline(const Deadline& other)
      : enabled_(other.enabled_),
        expiry_(other.expiry_),
        expired_(other.expired_.load(std::memory_order_relaxed)) {}
  Deadline& operator=(const Deadline& other) {
    enabled_ = other.enabled_;
    expiry_ = other.expiry_;
    expired_.store(other.expired_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  /// A deadline that never expires (deadline_ms == 0).
  static Deadline Infinite() { return Deadline(); }

  /// A deadline `ms` milliseconds from now; ms <= 0 yields Infinite().
  static Deadline FromMillis(int64_t ms) {
    Deadline d;
    if (ms > 0) {
      d.enabled_ = true;
      d.expiry_ =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    }
    return d;
  }

  bool enabled() const { return enabled_; }

  /// True once the budget ran out — and from then on (latched). Also true
  /// when the kDeadlineExpireSite failpoint fires (forced expiry for
  /// deterministic tests); disabled deadlines never expire and never
  /// evaluate the failpoint.
  bool Expired() const {
    if (!enabled_) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if ((Armed() && !Inject(kDeadlineExpireSite).ok()) ||
        std::chrono::steady_clock::now() >= expiry_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// OK while within budget; DeadlineExceeded naming the interrupted
  /// boundary once expired.
  Status Check(const char* boundary) const {
    if (!Expired()) return Status::OK();
    return Status::DeadlineExceeded(std::string("repair budget exhausted at ") +
                                    boundary);
  }

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point expiry_{};
  // Latch; relaxed atomic so tasks sharing one Deadline by reference may
  // race their checks.
  mutable std::atomic<bool> expired_{false};
};

}  // namespace fault
}  // namespace idrepair

#endif  // IDREPAIR_FAULT_DEADLINE_H_

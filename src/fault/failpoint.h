#ifndef IDREPAIR_FAULT_FAILPOINT_H_
#define IDREPAIR_FAULT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace idrepair {
namespace fault {

/// What an armed failpoint does when its trigger fires.
enum class FaultAction {
  kError,      // return spec.code/spec.message from the site
  kAllocFail,  // return ResourceExhausted (a simulated allocation failure)
  kDelay,      // sleep spec.delay_micros, then succeed (scheduling chaos)
  kCancel,     // return Cancelled (cooperative cancellation request)
};

/// How and when an armed failpoint fires. Exactly one trigger must be set:
/// either `fire_on_hit` (deterministic: fire on the Nth evaluation of the
/// site, 1-based) or `one_in` (seeded pseudo-random: each hit fires with
/// probability 1/one_in, decided by a pure hash of (seed, hit index), so a
/// given hit index always decides the same way — the *number* of fires over
/// N hits is a deterministic function of the spec).
struct FaultSpec {
  FaultAction action = FaultAction::kError;
  /// Status code returned by kError fires.
  StatusCode code = StatusCode::kInternal;
  /// Error message for kError fires; empty selects "<action> injected at
  /// <site>".
  std::string message;
  /// Deterministic trigger: fire exactly on the Nth hit (1-based). 0 = off.
  uint64_t fire_on_hit = 0;
  /// Probabilistic trigger: each hit fires with probability 1/one_in
  /// (one_in == 1 fires every hit). 0 = off.
  uint64_t one_in = 0;
  /// Seed of the probabilistic trigger's hash sequence.
  uint64_t seed = 0;
  /// Stop firing after this many fires (the site keeps counting hits).
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();
  /// Sleep applied by kDelay fires.
  uint32_t delay_micros = 1000;

  Status Validate() const;
};

namespace internal {
/// Count of currently armed failpoints. The process-wide gate behind
/// Armed(): relaxed is enough, the flag only decides whether sites take the
/// slow evaluation path, never guards data the reader dereferences.
inline std::atomic<int> g_armed_sites{0};
}  // namespace internal

/// True when at least one failpoint is armed anywhere in the process. Every
/// injection site branches on this; when false the site costs a single
/// relaxed atomic load (the same contract as obs::Enabled()).
inline bool Armed() {
  return internal::g_armed_sites.load(std::memory_order_relaxed) > 0;
}

/// One named injection site. Sites are created on first use (or first Arm)
/// and live for the process lifetime; pointers returned by the registry are
/// stable, so call sites cache them in static locals.
class FailPoint {
 public:
  explicit FailPoint(std::string name) : name_(std::move(name)) {}

  /// Destroying an armed point releases its slot in the process-wide armed
  /// count (registry-owned points live forever; this matters for the local
  /// instances unit tests build).
  ~FailPoint() { Disarm(); }

  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  /// Evaluates the site: counts the hit and, if the trigger fires, performs
  /// the armed action. Returns OK when disarmed, when the trigger does not
  /// fire, or after a kDelay fire. Thread-safe.
  Status Evaluate();

  /// Arms (or re-arms) the site with `spec`, resetting hit/fire counters so
  /// deterministic triggers count from this arming. Validates the spec.
  Status Arm(FaultSpec spec);

  /// Disarms the site. Counters keep their values for post-run assertions.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_acquire); }
  const std::string& name() const { return name_; }
  /// Evaluations since the last Arm().
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Trigger firings since the last Arm().
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  const std::string name_;
  mutable std::mutex mu_;  // guards spec_ against concurrent re-arming
  FaultSpec spec_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> fires_{0};
};

/// Point-in-time state of one site (FailPointRegistry::Snapshot).
struct FailPointInfo {
  std::string name;
  bool armed = false;
  uint64_t hits = 0;
  uint64_t fires = 0;
};

/// Process-wide registry of named failpoints, RocksDB SyncPoint-style:
/// tests and the CLI arm sites by name; instrumented code evaluates them
/// through Inject()/MaybePerturb() (or a cached FailPoint*).
class FailPointRegistry {
 public:
  FailPointRegistry() = default;
  FailPointRegistry(const FailPointRegistry&) = delete;
  FailPointRegistry& operator=(const FailPointRegistry&) = delete;

  static FailPointRegistry& Global();

  /// Get-or-create; the returned pointer is stable for the process
  /// lifetime.
  FailPoint* GetPoint(const std::string& name);

  /// Arms `name` (creating the site if it does not exist yet — arming may
  /// precede the first execution of the site).
  Status Arm(const std::string& name, FaultSpec spec);

  /// Disarms `name` if present.
  void Disarm(const std::string& name);

  /// Disarms every site. Tests call this in teardown so chaos never leaks
  /// into the next test.
  void DisarmAll();

  /// Name-sorted state of every known site.
  std::vector<FailPointInfo> Snapshot() const;

  /// Currently armed site count / total fires across all sites (for the
  /// --stats-json fault echo and chaos assertions).
  size_t NumArmed() const;
  uint64_t TotalFires() const;

  /// Human-readable per-site hit/fire dump (the CLI's --failpoints-status).
  /// Lists only sites that are armed or have been evaluated since their
  /// last arming — name-sorted, one line each — so the output is a stable
  /// function of what the run actually touched, not of which sites happen
  /// to exist in the process. The exact format is pinned by flags_test.
  std::string RenderStatus() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<FailPoint>> points_;
};

/// Full evaluation of the named site against the global registry. Returns
/// OK unless an armed error/alloc-fail/cancel trigger fired. Call only when
/// Armed() — the IDREPAIR_FAULT_INJECT macro does this for you.
Status Inject(const char* site);

/// Delay-only evaluation for void contexts (thread-pool dispatch):
/// fires still count, kDelay fires sleep, but error-like actions are
/// swallowed — a scheduler has no Status channel to propagate them through.
void MaybePerturb(const char* site);

/// Arms failpoints from a CLI spec string:
///   site=action[,key=value...][;site=action[,...]]...
/// with action in {error, alloc, delay, cancel} and keys on_hit, one_in,
/// seed, max_fires, delay_us. Example:
///   repair.generation.shard=error,on_hit=2;exec.pool.dispatch=delay,one_in=10,seed=7
Status ArmFromString(const std::string& spec);

}  // namespace fault
}  // namespace idrepair

/// Statement form of the common pattern: evaluate the named site and
/// propagate a fired Status to the caller. One relaxed load when nothing is
/// armed anywhere.
#define IDREPAIR_FAULT_INJECT(site)                              \
  do {                                                           \
    if (::idrepair::fault::Armed()) {                            \
      ::idrepair::Status _fault_st = ::idrepair::fault::Inject(site); \
      if (!_fault_st.ok()) return _fault_st;                     \
    }                                                            \
  } while (false)

#endif  // IDREPAIR_FAULT_FAILPOINT_H_

#ifndef IDREPAIR_SERVER_REGISTRY_H_
#define IDREPAIR_SERVER_REGISTRY_H_

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/snapshot.h"

namespace idrepair {
namespace server {

/// The daemon's multi-tenant graph store: named, versioned, immutable
/// GraphBundles behind a shared/exclusive lock.
///
/// ### Epoch-style replacement
/// Entries are shared_ptr<const GraphBundle>. Acquire() takes the shared
/// lock just long enough to copy the pointer; a repair then runs entirely
/// against its acquired bundle, off-lock. Re-registering a name swaps the
/// map slot under the exclusive lock and bumps the version — in-flight
/// repairs keep their old bundle alive through their shared_ptr and finish
/// on the version they started with; the last holder frees it. There is no
/// quiescing, no generation counter to wait on, and no way for a reader to
/// observe a half-replaced entry.
class GraphRegistry {
 public:
  /// One row of List(): identification plus enough shape/refcount data for
  /// the Stats request.
  struct EntryInfo {
    std::string name;
    uint64_t version = 0;
    size_t num_locations = 0;
    size_t num_edges = 0;
    size_t corpus_trajectories = 0;
    /// Outstanding bundle references beyond the registry's own (in-flight
    /// repairs still pinning this or an older epoch are not counted here —
    /// this is the *current* bundle's use count).
    long use_count = 0;
  };

  GraphRegistry() = default;
  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// Registers (or replaces) an entry, assigning version
  /// previous_version + 1 (1 for a new name). Building the bundle — corpus
  /// included — happens under the exclusive lock; registration is the
  /// rare admin path, repairs are the hot one.
  Result<uint64_t> Register(std::string name, TransitionGraph graph,
                            RepairOptions options,
                            std::vector<TrackingRecord> corpus_records);

  /// Inserts an already-built bundle (the snapshot-load path), keeping the
  /// bundle's stored version. An existing entry is replaced only when the
  /// incoming version is strictly newer; an equal-or-older incoming bundle
  /// is ignored (OK), so loading a stale snapshot dir cannot roll back a
  /// live registry.
  Status Insert(BundlePtr bundle);

  /// Pins and returns the current bundle for `name`.
  Result<BundlePtr> Acquire(const std::string& name) const;

  /// Name-sorted listing.
  std::vector<EntryInfo> List() const;

  size_t size() const;

  /// Writes one snapshot file per entry into `dir` (created if missing),
  /// named SnapshotFileName(name). Returns the number written.
  Result<size_t> SaveSnapshots(const std::string& dir) const;

  /// Loads every *.idrs file in `dir` (sorted order) through Insert().
  /// Returns the number of bundles loaded; any unreadable or corrupt file
  /// fails the whole load — a daemon must not silently start with a
  /// partial registry.
  Result<size_t> LoadDir(const std::string& dir);

  /// Tenant names double as snapshot file stems, so they are restricted to
  /// [A-Za-z0-9._-]{1,128} with no leading dot.
  static Status ValidateName(const std::string& name);

  /// "<name>.idrs".
  static std::string SnapshotFileName(const std::string& name);

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, BundlePtr> entries_;
};

}  // namespace server
}  // namespace idrepair

#endif  // IDREPAIR_SERVER_REGISTRY_H_

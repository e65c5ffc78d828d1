#ifndef IDREPAIR_SERVER_SNAPSHOT_H_
#define IDREPAIR_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/transition_graph.h"
#include "repair/options.h"
#include "repair/predicates.h"
#include "server/wire_format.h"
#include "traj/tracking_record.h"
#include "traj/trajectory_set.h"

namespace idrepair {
namespace server {

/// One registry entry: a named transition graph, the repair options it was
/// registered with, the graph's lazily built predicate evaluator, and
/// (optionally) a resident corpus. Bundles are
/// immutable after construction and shared through
/// shared_ptr<const GraphBundle> — the epoch mechanism of GraphRegistry:
/// replacing an entry swaps the pointer, and in-flight repairs holding the
/// old bundle finish on the old version.
///
/// `evaluator` points into `graph`, so a bundle is never copied or moved
/// after assembly; the holder's once_flag makes either a compile error.
struct GraphBundle {
  GraphBundle(std::string name, uint64_t version, TransitionGraph graph,
              RepairOptions options);

  std::string name;
  /// Registry epoch of this bundle, monotonically increasing per name.
  uint64_t version = 1;
  TransitionGraph graph;
  /// The registered defaults. `similarity`, `exec`, and `obs` are
  /// process-local and never persisted; a snapshot round-trip resets them
  /// to defaults.
  RepairOptions options;
  /// The evaluator over `graph` at the registered θ/η. Built by the first
  /// repair on this bundle, not at registration, and shared by every repair
  /// after it: one build per epoch, since a re-registration is a new bundle.
  LazyPredicateEvaluator evaluator;
  /// Resident corpus, or null when the tenant registered a graph only. A
  /// corpus repair builds its LIG like any other Gm build.
  std::unique_ptr<TrajectorySet> corpus;

  /// Flattens the resident corpus back to records, in trajectory order.
  /// Deterministic, and FromRecords of the result reproduces the corpus —
  /// the identity the snapshot byte-stability tests lean on.
  std::vector<TrackingRecord> CorpusRecords() const;
};

using BundlePtr = std::shared_ptr<const GraphBundle>;

/// Validates and assembles a bundle: graph structural sanity, option
/// sanity, corpus record location bounds; builds the corpus set when
/// `corpus_records` is non-empty.
Result<BundlePtr> MakeBundle(std::string name, uint64_t version,
                             TransitionGraph graph, RepairOptions options,
                             std::vector<TrackingRecord> corpus_records);

// ---- Snapshot file format (v2) -------------------------------------
//
// A snapshot is a 24-byte header followed by a CRC-protected payload:
//
//   u32 magic   'IDRS' (0x53524449 little-endian)
//   u32 version  2
//   u64 payload_size        (exact byte count; no trailing garbage)
//   u32 payload_crc32       (IEEE CRC-32 of the payload bytes)
//   u32 reserved            (0)
//
// The payload is a sequence of tagged sections, each `u32 tag, u64 len,
// len bytes`, in strictly ascending tag order:
//
//   1 meta      entry name, registry version
//   2 vertices  location names (id order), entrances/exits (marking order)
//   3 edges     (from, to) pairs grouped by source in insertion order
//   4 matrix    the packed bitset edge matrix — cross-checked on load
//               against the matrix rebuilt from section 3
//   5 options   the registered RepairOptions (persistable fields only)
//   6 corpus    resident corpus records (optional)
//
// Version 1 also carried a section 7 with the corpus's LIG arena; version
// 2 dropped it (a corpus repair builds its own LIG), so v1 files fail the
// version check.
//
// Loaders reject bad magic, unknown versions, truncation, trailing bytes,
// CRC mismatches, unknown or out-of-order sections, and any structural
// inconsistency between sections, always with a clean Status.

inline constexpr uint32_t kSnapshotMagic = 0x53524449u;  // "IDRS"
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr size_t kSnapshotHeaderBytes = 24;

/// Serializes a bundle to snapshot bytes.
std::string EncodeSnapshot(const GraphBundle& bundle);

/// Parses and fully validates snapshot bytes.
Result<BundlePtr> DecodeSnapshot(std::string_view bytes);

/// Suffix of the temp file WriteSnapshotFile writes before renaming it over
/// the live snapshot. LoadDir reads only `.idrs` files, so a temp left by a
/// crash is ignored.
inline constexpr char kSnapshotTempSuffix[] = ".tmp";

/// EncodeSnapshot + crash-safe file write: the bytes go to `path` + ".tmp",
/// which is fsynced and renamed over `path`, then the directory is fsynced.
/// A crash at any point leaves either the old or the new snapshot at
/// `path`, never a torn one. The io.snapshot.save failpoint fires between
/// the temp write and the rename.
Status WriteSnapshotFile(const std::string& path, const GraphBundle& bundle);

/// Whole-file read + DecodeSnapshot (failpoint: io.snapshot.load).
Result<BundlePtr> ReadSnapshotFile(const std::string& path);

// ---- Shared field encoders ------------------------------------------
// Reused by the wire protocol so a record or option block has exactly one
// byte-level encoding in the system.

void EncodeRepairOptions(BinaryWriter* w, const RepairOptions& options);
/// Decodes into *options (persistable fields only; pointers and exec/obs
/// keep their current values). Latches decode errors on the reader.
void DecodeRepairOptions(BinaryReader* r, RepairOptions* options);

void EncodeRecords(BinaryWriter* w, const std::vector<TrackingRecord>& recs);
std::vector<TrackingRecord> DecodeRecords(BinaryReader* r);

}  // namespace server
}  // namespace idrepair

#endif  // IDREPAIR_SERVER_SNAPSHOT_H_

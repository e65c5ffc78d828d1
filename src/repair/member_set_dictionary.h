#ifndef IDREPAIR_REPAIR_MEMBER_SET_DICTIONARY_H_
#define IDREPAIR_REPAIR_MEMBER_SET_DICTIONARY_H_

#include <cstdint>
#include <vector>

#include "common/default_init_vector.h"
#include "common/flat_hash.h"
#include "common/span.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// Interning pool for candidate member sets (sorted ascending TrajIndex
/// lists), in the style of the color-set dictionaries of k-mer indexes:
/// identical sets are stored once in a single flat arena and referenced by
/// a 32-bit id. Candidate repairs routinely reuse sets — most prominently,
/// a candidate whose members are all invalid shares one pooled set between
/// its member list and its ivt list — so the pool plus two ids is far
/// smaller than two heap vectors per candidate (24-byte headers, malloc
/// slack, and copies all disappear).
///
/// Ids are assigned in first-intern order, so a dictionary populated by a
/// deterministic candidate stream is itself deterministic. CopyAt appends
/// other dictionaries' sets after this one's without re-interning them, so
/// a dictionary built by interning per block and copying the blocks in
/// block order has first-intern order within each block, and the blocks'
/// id ranges follow one another in block order. Returned spans
/// point into the arena and stay valid until the dictionary is destroyed
/// (the arena never shrinks or reorders; growth uses offset indexing, so
/// reallocation does not invalidate ids — it does invalidate spans, hence
/// the "no views across mutation" rule of DESIGN.md §9).
class MemberSetDictionary {
 public:
  using SetId = uint32_t;

  MemberSetDictionary() = default;

  /// Returns the id of `set`, pooling it on first sight. `set` must be
  /// sorted ascending (candidate member lists always are). Deduplication is
  /// best-effort under hash collision: a collision stores a duplicate pool
  /// entry rather than risking a content mix-up — correctness never depends
  /// on the dedup hit rate.
  SetId Intern(Span<const TrajIndex> set);

  /// Bulk concatenation, step 1: appends room for `sets` more sets holding
  /// `entries` elements in total, left unwritten until CopyAt fills it.
  /// Invalidates views.
  void Grow(size_t sets, size_t entries);

  /// Bulk concatenation, step 2: writes every set of `other`, in its id
  /// order, into room made by Grow — `other`'s set k becomes set
  /// `first_set + k`, its elements starting at arena position
  /// `first_entry`. Callers fill the grown room front to back without gaps
  /// (the first copy starts at the pre-Grow num_sets() and
  /// pool_entries()). Nothing is re-interned: a set pooled in both
  /// dictionaries is stored twice, and copied sets are not indexed, so a
  /// later Intern does not dedup against them. Copies into disjoint ranges
  /// may run concurrently.
  void CopyAt(const MemberSetDictionary& other, size_t first_set,
              size_t first_entry);

  /// The pooled set for `id`. Valid until the next Intern call.
  Span<const TrajIndex> Get(SetId id) const {
    return Span<const TrajIndex>(pool_.data() + offsets_[id],
                                 offsets_[id + 1] - offsets_[id]);
  }

  size_t set_size(SetId id) const { return offsets_[id + 1] - offsets_[id]; }

  /// Number of distinct pooled sets.
  size_t num_sets() const { return offsets_.size() - 1; }

  /// Total pooled elements across all sets.
  size_t pool_entries() const { return pool_.size(); }

  /// Heap bytes of the arena, offsets, and dedup index.
  size_t MemoryBytes() const;

  /// Drops the dedup index (keeps arena and ids intact) once interning is
  /// finished. Get() keeps working; a later Intern() simply stops deduping
  /// against pre-freeze sets.
  void Freeze();

 private:
  static uint64_t HashSet(Span<const TrajIndex> set);

  DefaultInitVector<TrajIndex> pool_;
  DefaultInitVector<uint64_t> offsets_ = {0};
  // hash -> id of the first set seen with that hash. Best-effort: a second
  // distinct set with the same hash is pooled without an index entry. Flat
  // open-addressing table — Intern runs once per candidate set column, so
  // the probe cost is on the generation hot path.
  FlatHash64Map<SetId> index_;
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_MEMBER_SET_DICTIONARY_H_

#include "repair/member_set_dictionary.h"

#include <algorithm>

namespace idrepair {

uint64_t MemberSetDictionary::HashSet(Span<const TrajIndex> set) {
  // FNV-1a over the element stream; fixed constants keep id assignment (and
  // therefore every downstream structure) deterministic across runs.
  uint64_t h = 1469598103934665603ull;
  for (TrajIndex t : set) {
    h ^= static_cast<uint64_t>(t) + 1;  // +1 so index 0 still perturbs
    h *= 1099511628211ull;
  }
  h ^= set.size();
  h *= 1099511628211ull;
  return h;
}

MemberSetDictionary::SetId MemberSetDictionary::Intern(
    Span<const TrajIndex> set) {
  uint64_t hash = HashSet(set);
  // The flat table reserves the all-ones key as its empty marker; remap
  // the (astronomically unlikely) colliding hash — dedup is best-effort,
  // so a biased hash only risks one extra pooled copy, never corruption.
  if (hash == FlatHash64Map<SetId>::kEmptyKey) hash = 0x9e3779b97f4a7c15ull;
  SetId* found = index_.Find(hash);
  if (found != nullptr && Get(*found) == set) return *found;

  SetId id = static_cast<SetId>(num_sets());
  pool_.insert(pool_.end(), set.begin(), set.end());
  offsets_.push_back(pool_.size());
  if (found == nullptr) index_.Insert(hash, id);
  return id;
}

void MemberSetDictionary::Grow(size_t sets, size_t entries) {
  offsets_.resize(offsets_.size() + sets);
  pool_.resize(pool_.size() + entries);
}

void MemberSetDictionary::CopyAt(const MemberSetDictionary& other,
                                 size_t first_set, size_t first_entry) {
  std::copy(other.pool_.begin(), other.pool_.end(),
            pool_.begin() + first_entry);
  // offsets_[first_set] (this set's start) is the previous copy's end.
  for (size_t k = 1; k < other.offsets_.size(); ++k) {
    offsets_[first_set + k] = other.offsets_[k] + first_entry;
  }
}

size_t MemberSetDictionary::MemoryBytes() const {
  return pool_.capacity() * sizeof(TrajIndex) +
         offsets_.capacity() * sizeof(uint64_t) + index_.MemoryBytes();
}

void MemberSetDictionary::Freeze() { index_.Clear(); }

}  // namespace idrepair

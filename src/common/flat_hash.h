#ifndef IDREPAIR_COMMON_FLAT_HASH_H_
#define IDREPAIR_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace idrepair {

/// SplitMix64 finalizer: a full-avalanche mix so low bits of the table
/// index depend on every input bit — required because FlatHash64Map masks
/// with a power-of-2 capacity instead of dividing by a prime.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Open-addressing hash map from uint64 keys to small trivially-copyable
/// values: linear probing over two parallel flat arrays, power-of-2
/// capacity, ≤ 7/8 load. Exists because the generator's pair-similarity
/// memo and target-name table put a map lookup on the per-candidate hot
/// path, where std::unordered_map's modulo-prime bucketing (an integer
/// division per probe) and node-per-entry chaining dominated the generation
/// profile.
///
/// Contract: no erase, key `kEmptyKey` (all ones) is reserved as the empty
/// slot marker, Insert requires the key to be absent (callers always Find
/// first). Values are stored by value; pointers returned by Find are valid
/// until the next Insert.
template <typename V>
class FlatHash64Map {
 public:
  static constexpr uint64_t kEmptyKey = ~0ull;

  /// Pointer to the value for `key`, or nullptr. Never grows the table.
  V* Find(uint64_t key) {
    if (keys_.empty()) return nullptr;
    const size_t mask = keys_.size() - 1;
    for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      if (keys_[i] == key) return &values_[i];
      if (keys_[i] == kEmptyKey) return nullptr;
    }
  }

  /// Inserts an absent key. Invalidates pointers from earlier Finds when
  /// it triggers growth.
  void Insert(uint64_t key, V value) {
    if ((size_ + 1) * 8 > keys_.size() * 7) Grow();
    const size_t mask = keys_.size() - 1;
    size_t i = Mix64(key) & mask;
    while (keys_[i] != kEmptyKey) i = (i + 1) & mask;
    keys_[i] = key;
    values_[i] = value;
    ++size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Empties the map but KEEPS its capacity: one fill of the key array
  /// instead of a rebuild-from-64 growth ladder. This is the per-block
  /// reset of per-thread scratch memos — entries from a previous input
  /// must not leak across blocks, but the table footprint should.
  void Reset() {
    if (!keys_.empty()) keys_.assign(keys_.size(), kEmptyKey);
    size_ = 0;
  }

 private:
  void Grow() {
    const size_t cap = keys_.empty() ? 64 : keys_.size() * 2;
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(cap, kEmptyKey);
    values_.assign(cap, V());
    const size_t mask = cap - 1;
    for (size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmptyKey) continue;
      size_t i = Mix64(old_keys[j]) & mask;
      while (keys_[i] != kEmptyKey) i = (i + 1) & mask;
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
};

}  // namespace idrepair

#endif  // IDREPAIR_COMMON_FLAT_HASH_H_

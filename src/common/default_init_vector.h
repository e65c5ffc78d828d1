#ifndef IDREPAIR_COMMON_DEFAULT_INIT_VECTOR_H_
#define IDREPAIR_COMMON_DEFAULT_INIT_VECTOR_H_

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace idrepair {

/// std::allocator whose no-argument construct default-initializes instead
/// of value-initializing: resize() on a vector of trivial elements leaves
/// the new elements unwritten, so the pages behind them are first touched
/// by whoever fills them. Bulk parallel fills (CandidateSet::Concatenate)
/// rely on this to fault their disjoint ranges in on every worker instead
/// of zeroing the whole array on the calling thread first.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A std::vector whose resize() does not zero trivial elements.
template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace idrepair

#endif  // IDREPAIR_COMMON_DEFAULT_INIT_VECTOR_H_

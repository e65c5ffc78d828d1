#ifndef IDREPAIR_COMMON_SPAN_H_
#define IDREPAIR_COMMON_SPAN_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <type_traits>
#include <vector>

namespace idrepair {

/// A non-owning view of a contiguous element range — the data-plane return
/// type of every hot accessor (graph neighbor lists, candidate member sets,
/// repair-graph conflicts). Unlike returning `const std::vector<T>&`, a Span keeps the
/// container layout out of the public contract, so the storage behind an
/// accessor can move to a CSR arena without touching callers.
///
/// Differences from std::span<const T> that earn it a home here: ordered
/// value comparison against any contiguous container (the byte-identity
/// suites compare neighbor lists against golden vectors), gtest-friendly
/// streaming, and an implicit vector conversion for call sites that must
/// materialize (map keys).
///
/// Lifetime: a Span is valid only while the structure it was read from is
/// alive and unmutated. Accessors document their invalidation rules; the
/// blanket rule is "no views held across mutation" (DESIGN.md §9).
template <typename T>
class Span {
 public:
  /// The element type with cv stripped, so Span<const T> still converts
  /// from std::vector<T> (vector<const T> is not a thing).
  using value_type = std::remove_cv_t<T>;
  using const_iterator = const T*;

  constexpr Span() = default;
  constexpr Span(const T* data, size_t size) : data_(data), size_(size) {}
  /// Views a whole vector. Implicit on purpose: accessors migrating from
  /// `const std::vector<T>&` keep working call sites source-compatible.
  Span(const std::vector<value_type>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}
  /// Views a braced literal. The backing array lives only to the end of the
  /// full expression, so this is for immediate-consumption arguments only —
  /// exactly the case GCC's init-list-lifetime warning cannot distinguish.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
  Span(std::initializer_list<value_type> il)  // NOLINT(runtime/explicit)
      : data_(il.begin()), size_(il.size()) {}
#pragma GCC diagnostic pop

  constexpr const T* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }

  constexpr const T* begin() const { return data_; }
  constexpr const T* end() const { return data_ + size_; }

  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  const T& front() const {
    assert(size_ > 0);
    return data_[0];
  }
  const T& back() const {
    assert(size_ > 0);
    return data_[size_ - 1];
  }

  Span subspan(size_t offset, size_t count) const {
    assert(offset + count <= size_);
    return Span(data_ + offset, count);
  }

  /// Materializes a copy (map keys, mutation staging).
  std::vector<value_type> ToVector() const {
    return std::vector<value_type>(begin(), end());
  }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

template <typename T>
bool operator==(Span<T> a, Span<T> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

template <typename T>
bool operator!=(Span<T> a, Span<T> b) {
  return !(a == b);
}

template <typename T>
bool operator==(Span<T> a, const std::vector<typename Span<T>::value_type>& b) {
  return a == Span<T>(b);
}

template <typename T>
bool operator==(const std::vector<typename Span<T>::value_type>& a, Span<T> b) {
  return Span<T>(a) == b;
}

template <typename T>
bool operator!=(Span<T> a, const std::vector<typename Span<T>::value_type>& b) {
  return !(a == b);
}

template <typename T>
bool operator!=(const std::vector<typename Span<T>::value_type>& a, Span<T> b) {
  return !(a == b);
}

template <typename T>
std::ostream& operator<<(std::ostream& os, Span<T> s) {
  os << "[";
  for (size_t i = 0; i < s.size(); ++i) os << (i ? ", " : "") << s[i];
  return os << "]";
}

}  // namespace idrepair

#endif  // IDREPAIR_COMMON_SPAN_H_

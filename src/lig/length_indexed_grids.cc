#include "lig/length_indexed_grids.h"

#include <algorithm>
#include <cstdint>

namespace idrepair {

LengthIndexedGrids::LengthIndexedGrids(const TrajectorySet& set,
                                       const Options& options)
    : set_(set), options_(options) {
  Timestamp min_start = 0;
  Timestamp max_end = 0;
  bool first = true;
  for (const auto& t : set.trajectories()) {
    if (t.empty()) continue;
    if (first) {
      min_start = t.start_time();
      max_end = t.end_time();
      first = false;
    } else {
      min_start = std::min(min_start, t.start_time());
      max_end = std::max(max_end, t.end_time());
    }
  }
  base_time_ = min_start;
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  num_bins_ = static_cast<size_t>((max_end - base_time_) / tb) + 1;
  band_ = static_cast<size_t>(options_.eta / tb) + 2;

  for (TrajIndex i = 0; i < set.size(); ++i) {
    size_t cell = CellFor(set.at(i));
    if (cell != SIZE_MAX) entries_.emplace_back(cell, i);
  }
  std::sort(entries_.begin(), entries_.end());
}

size_t LengthIndexedGrids::CellFor(const Trajectory& t) const {
  if (t.empty() || t.size() > options_.theta) return SIZE_MAX;
  if (t.TimeSpan() > options_.eta) return SIZE_MAX;  // can never join
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  size_t sbin = static_cast<size_t>((t.start_time() - base_time_) / tb);
  size_t ebin = static_cast<size_t>((t.end_time() - base_time_) / tb);
  size_t off = ebin - sbin;
  if (off >= band_) return SIZE_MAX;  // fits η but straddles bin edges
  return CellKey(t.size(), sbin, off);
}

void LengthIndexedGrids::CollectCandidates(TrajIndex k,
                                           std::vector<TrajIndex>* out) const {
  const Trajectory& t = set_.at(k);
  if (t.empty() || t.size() >= options_.theta) return;  // no room for a peer
  size_t max_len = options_.theta - t.size();
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  Timestamp window_lo = t.end_time() - options_.eta;
  Timestamp window_hi = t.start_time() + options_.eta;
  if (window_lo > window_hi) return;
  int64_t lo_bin_signed = (window_lo - base_time_) / tb;
  if (window_lo < base_time_) lo_bin_signed = 0;
  size_t lo_bin = static_cast<size_t>(lo_bin_signed);
  size_t hi_bin = std::min(
      num_bins_ - 1,
      static_cast<size_t>(std::max<Timestamp>(0, window_hi - base_time_) / tb));
  if (lo_bin > hi_bin) return;
  // Per length, the candidates' start bins fill one key range; walk its
  // non-empty cells and drop those whose end bin leaves the window.
  for (size_t len = 1; len <= max_len; ++len) {
    size_t len_base = CellKey(len, 0, 0);
    size_t end_key = CellKey(len, hi_bin + 1, 0);
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(),
        std::pair<size_t, TrajIndex>(CellKey(len, lo_bin, 0), 0));
    for (; it != entries_.end() && it->first < end_key; ++it) {
      size_t rel = it->first - len_base;
      if (rel / band_ + rel % band_ > hi_bin) continue;  // sbin + off
      if (it->second != k) out->push_back(it->second);
    }
  }
}

}  // namespace idrepair

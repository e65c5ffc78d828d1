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

  // CSR fill in two scans: count each cell's population, prefix-sum into
  // offsets, then place indices. Scanning i ascending keeps every bucket
  // sorted, matching the old push_back order.
  size_t num_cells = options_.theta * num_bins_ * band_;
  cell_offsets_.assign(num_cells + 1, 0);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    size_t cell = CellFor(set.at(i));
    if (cell != SIZE_MAX) ++cell_offsets_[cell + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) {
    cell_offsets_[c + 1] += cell_offsets_[c];
  }
  cell_entries_.resize(cell_offsets_[num_cells]);
  std::vector<uint32_t> cursor(cell_offsets_.begin(),
                               cell_offsets_.end() - 1);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    size_t cell = CellFor(set.at(i));
    if (cell == SIZE_MAX) continue;
    cell_entries_[cursor[cell]++] = i;
    ++num_indexed_;
  }
}

LengthIndexedGrids::Parts LengthIndexedGrids::ToParts() const {
  Parts parts;
  parts.options = options_;
  parts.base_time = base_time_;
  parts.num_bins = num_bins_;
  parts.band = band_;
  parts.num_indexed = num_indexed_;
  parts.cell_offsets = cell_offsets_;
  parts.cell_entries = cell_entries_;
  return parts;
}

LengthIndexedGrids::LengthIndexedGrids(const TrajectorySet& set, Parts parts)
    : set_(set),
      options_(parts.options),
      base_time_(parts.base_time),
      num_bins_(static_cast<size_t>(parts.num_bins)),
      band_(static_cast<size_t>(parts.band)),
      num_indexed_(static_cast<size_t>(parts.num_indexed)),
      cell_offsets_(std::move(parts.cell_offsets)),
      cell_entries_(std::move(parts.cell_entries)) {}

Result<std::unique_ptr<LengthIndexedGrids>> LengthIndexedGrids::FromParts(
    const TrajectorySet& set, Parts parts) {
  if (parts.options.theta == 0) {
    return Status::InvalidArgument("lig parts: theta must be >= 1");
  }
  if (parts.num_bins == 0 || parts.band == 0) {
    return Status::InvalidArgument("lig parts: num_bins and band must be >= 1");
  }
  uint64_t num_cells =
      static_cast<uint64_t>(parts.options.theta) * parts.num_bins * parts.band;
  if (parts.cell_offsets.size() != num_cells + 1) {
    return Status::InvalidArgument("lig parts: offset table size mismatch");
  }
  if (parts.cell_offsets.front() != 0) {
    return Status::InvalidArgument("lig parts: offsets must start at 0");
  }
  for (size_t c = 0; c + 1 < parts.cell_offsets.size(); ++c) {
    if (parts.cell_offsets[c] > parts.cell_offsets[c + 1]) {
      return Status::InvalidArgument("lig parts: offsets must be monotone");
    }
  }
  if (parts.cell_offsets.back() != parts.cell_entries.size()) {
    return Status::InvalidArgument(
        "lig parts: entry arena size disagrees with final offset");
  }
  if (parts.num_indexed != parts.cell_entries.size()) {
    return Status::InvalidArgument(
        "lig parts: num_indexed disagrees with entry count");
  }
  for (TrajIndex e : parts.cell_entries) {
    if (static_cast<size_t>(e) >= set.size()) {
      return Status::InvalidArgument(
          "lig parts: entry index out of range for the given set");
    }
  }
  return std::unique_ptr<LengthIndexedGrids>(
      new LengthIndexedGrids(set, std::move(parts)));
}

size_t LengthIndexedGrids::CellFor(const Trajectory& t) const {
  if (t.empty() || t.size() > options_.theta) return SIZE_MAX;
  if (t.TimeSpan() > options_.eta) return SIZE_MAX;  // can never join
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  size_t sbin = static_cast<size_t>((t.start_time() - base_time_) / tb);
  size_t ebin = static_cast<size_t>((t.end_time() - base_time_) / tb);
  size_t off = ebin - sbin;
  if (off >= band_) return SIZE_MAX;  // fits η but straddles bin edges
  return CellIndex(t.size(), sbin, off);
}

Span<const TrajIndex> LengthIndexedGrids::Bucket(size_t length,
                                                 size_t start_bin,
                                                 size_t span_off) const {
  size_t cell = CellIndex(length, start_bin, span_off);
  return Span<const TrajIndex>(cell_entries_.data() + cell_offsets_[cell],
                               cell_offsets_[cell + 1] - cell_offsets_[cell]);
}

size_t LengthIndexedGrids::MemoryBytes() const {
  return cell_offsets_.capacity() * sizeof(uint32_t) +
         cell_entries_.capacity() * sizeof(TrajIndex);
}

void LengthIndexedGrids::CollectCandidates(TrajIndex k,
                                           std::vector<TrajIndex>* out) const {
  const Trajectory& t = set_.at(k);
  if (t.empty() || t.size() >= options_.theta) return;  // no room for a peer
  size_t before = out->size();
  CollectCandidatesSpan(t.size(), t.start_time(), t.end_time(), out);
  // Self-exclusion: the set-bound probe never reports k itself.
  out->erase(std::remove(out->begin() + static_cast<ptrdiff_t>(before),
                         out->end(), k),
             out->end());
}

void LengthIndexedGrids::CollectCandidatesSpan(
    size_t length, Timestamp start, Timestamp end,
    std::vector<TrajIndex>* out) const {
  if (length == 0 || length >= options_.theta) return;  // no room for a peer
  size_t max_len = options_.theta - length;
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  Timestamp window_lo = end - options_.eta;
  Timestamp window_hi = start + options_.eta;
  if (window_lo > window_hi) return;
  int64_t lo_bin_signed = (window_lo - base_time_) / tb;
  if (window_lo < base_time_) lo_bin_signed = 0;
  size_t lo_bin = static_cast<size_t>(lo_bin_signed);
  size_t hi_bin = std::min(
      num_bins_ - 1,
      static_cast<size_t>(std::max<Timestamp>(0, window_hi - base_time_) / tb));
  if (lo_bin > hi_bin) return;
  for (size_t len = 1; len <= max_len; ++len) {
    for (size_t sbin = lo_bin; sbin <= hi_bin; ++sbin) {
      for (size_t off = 0; off < band_; ++off) {
        size_t ebin = sbin + off;
        if (ebin > hi_bin) break;  // candidate end beyond the window
        for (TrajIndex c : Bucket(len, sbin, off)) {
          out->push_back(c);
        }
      }
    }
  }
}

}  // namespace idrepair

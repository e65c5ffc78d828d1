#include "repair/repair_graph.h"

#include <algorithm>

#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Gr degrees by inclusion–exclusion over member subsets:
/// |∪ over t in M_v of Cover(t)| = Σ over nonempty S ⊆ M_v of
/// (−1)^(|S|+1) c(S), where c(S) counts the repairs holding all of S. A
/// depth-first walk visits the subsets in increasing order of their
/// elements, each with the repairs that hold it; it adds ±c(S) to each of
/// them and buckets them by their next member above max(S) to reach the
/// subsets one larger. A subset held by one repair ends its branch: every
/// extension is held by that repair alone, and their terms cancel unless
/// there is none. The walk is serial and deterministic.
class SubsetWalk {
 public:
  SubsetWalk(const CandidateSet& candidates, size_t num_trajs,
             size_t max_members)
      : candidates_(candidates),
        num_trajs_(num_trajs),
        union_(candidates.size(), 0),
        levels_(max_members + 1) {}

  /// `holders` (ascending) hold every element of a subset of `depth`
  /// trajectories whose largest is `last`.
  void Visit(Span<const RepairIndex> holders, size_t depth, TrajIndex last) {
    const int64_t sign = depth % 2 == 1 ? 1 : -1;
    if (holders.size() <= 1) {
      if (holders.empty()) return;
      // Members are ascending, so the last one is the largest.
      Span<const TrajIndex> m = candidates_.members(holders[0]);
      if (m[m.size() - 1] <= last) union_[holders[0]] += sign;
      return;
    }
    const int64_t term = sign * static_cast<int64_t>(holders.size());
    for (RepairIndex r : holders) union_[r] += term;
    // Bucket the holders by each member above `last`: the repairs holding
    // S ∪ {x} land, ascending, in next_holders[end[x] - count[x] .. end[x]).
    Level& l = levels_[depth];
    if (l.count.empty()) {
      l.count.assign(num_trajs_, 0);
      l.end.assign(num_trajs_, 0);
    }
    l.next.clear();
    for (RepairIndex r : holders) {
      for (TrajIndex x : candidates_.members(r)) {
        if (x > last && l.count[x]++ == 0) l.next.push_back(x);
      }
    }
    size_t filled = 0;
    for (TrajIndex x : l.next) {
      l.end[x] = filled;
      filled += l.count[x];
    }
    l.next_holders.resize(filled);
    for (RepairIndex r : holders) {
      for (TrajIndex x : candidates_.members(r)) {
        if (x > last) l.next_holders[l.end[x]++] = r;
      }
    }
    for (TrajIndex x : l.next) {
      const size_t end = l.end[x];
      const size_t begin = end - l.count[x];
      l.count[x] = 0;
      Visit(Span<const RepairIndex>(l.next_holders.data() + begin,
                                    end - begin),
            depth + 1, x);
    }
  }

  /// |∪ over t in M_v of Cover(t)| once every trajectory's cover list was
  /// visited at depth 1.
  int64_t union_size(size_t v) const { return union_[v]; }

 private:
  // One per depth, so a deeper Visit never moves a shallower one's lists;
  // count stays all-zero between uses.
  struct Level {
    std::vector<uint32_t> count;
    std::vector<size_t> end;
    std::vector<TrajIndex> next;
    std::vector<RepairIndex> next_holders;
  };

  const CandidateSet& candidates_;
  size_t num_trajs_;
  std::vector<int64_t> union_;
  std::vector<Level> levels_;
};

}  // namespace

CoverIndex CoverIndex::Build(const CandidateSet& candidates,
                             size_t num_trajs) {
  CoverIndex cover;
  cover.offsets.assign(num_trajs + 1, 0);
  for (size_t r = 0; r < candidates.size(); ++r) {
    for (TrajIndex t : candidates.members(r)) ++cover.offsets[t + 1];
  }
  for (size_t t = 0; t < num_trajs; ++t) {
    cover.offsets[t + 1] += cover.offsets[t];
  }
  cover.entries.resize(cover.offsets[num_trajs]);
  std::vector<uint64_t> cursor(cover.offsets.begin(), cover.offsets.end() - 1);
  for (size_t r = 0; r < candidates.size(); ++r) {
    for (TrajIndex t : candidates.members(r)) {
      cover.entries[cursor[t]++] = static_cast<RepairIndex>(r);
    }
  }
  return cover;
}

Result<RepairGraph> RepairGraph::Build(const CandidateSet& candidates,
                                       size_t num_trajs,
                                       const ExecOptions& exec) {
  RepairGraph out;
  out.cover_ = CoverIndex::Build(candidates, num_trajs);
  const int threads = exec.ResolvedThreads();
  const size_t n = candidates.size();
  out.degree_.assign(n, 0);

  // Work bounds of the two exact methods: the subset walk visits at most
  // 2^|M_v| subsets per repair at |M_v| steps each; the stamp pass reads
  // every cover list once per member of each repair in it, Σ |Cover(t)|².
  // The walk runs serially, so it is taken when its bound, times the
  // threads the stamp pass would split over, is no larger.
  uint64_t stamp_work = 0;
  for (size_t t = 0; t < num_trajs; ++t) {
    const uint64_t len = out.cover_.offsets[t + 1] - out.cover_.offsets[t];
    stamp_work += len * len;
  }
  uint64_t walk_bound = 0;
  size_t max_members = 0;
  for (size_t v = 0; v < n && walk_bound <= stamp_work; ++v) {
    const size_t m = candidates.members(v).size();
    max_members = std::max(max_members, m);
    walk_bound += m < 32 ? (uint64_t{m} << m) : stamp_work + 1;
  }
  const uint64_t split = static_cast<uint64_t>(std::max(threads, 1));
  if (n > 0 && walk_bound <= stamp_work / split) {
    IDREPAIR_FAULT_INJECT("repair.selection.shard");
    obs::TraceSpan span("selection.degree.shard", 0);
    SubsetWalk walk(candidates, num_trajs, max_members);
    for (size_t t = 0; t < num_trajs; ++t) {
      walk.Visit(out.cover_.Cover(static_cast<TrajIndex>(t)), 1,
                 static_cast<TrajIndex>(t));
    }
    for (size_t v = 0; v < n; ++v) {
      // A repair with members counts itself once in its union.
      const int64_t others = walk.union_size(v) - 1;
      out.degree_[v] = others > 0 ? static_cast<uint32_t>(others) : 0;
    }
  } else {
    const size_t block = ResolveGrain(exec.grain, n, threads,
                                      kSelectionGrainCalibration);
    IDREPAIR_RETURN_NOT_OK(ParallelFor(
        &ThreadPool::Default(), n, threads, block,
        [&](size_t b, size_t begin, size_t end) {
          IDREPAIR_FAULT_INJECT("repair.selection.shard");
          obs::TraceSpan span("selection.degree.shard", b);
          // seen[r] == epoch marks r as counted for the current vertex. The
          // buffer keeps its capacity across blocks and calls and dies with
          // its thread; the epoch only grows, so a stamp an earlier vertex
          // or call left behind never equals it and nothing is cleared.
          thread_local std::vector<uint64_t> seen;
          thread_local uint64_t epoch = 0;
          if (seen.size() < n) seen.resize(n, 0);
          for (size_t v = begin; v < end; ++v) {
            ++epoch;
            uint32_t degree = 0;
            for (TrajIndex t : candidates.members(v)) {
              for (RepairIndex r : out.cover_.Cover(t)) {
                if (r == v || seen[r] == epoch) continue;
                seen[r] = epoch;
                ++degree;
              }
            }
            out.degree_[v] = degree;
          }
          return Status::OK();
        }));
  }
  for (uint32_t d : out.degree_) out.num_edges_ += d;
  out.num_edges_ /= 2;
  return out;
}

}  // namespace idrepair

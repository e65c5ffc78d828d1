#include "repair/candidates.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <iterator>
#include <utility>

#include "common/flat_hash.h"
#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Below this many rows in total, Concatenate copies on the calling thread:
/// measured on a 4-vCPU Xeon (GCC 12.2, Release), four blocks of 4,000 rows
/// copy in ~300 µs either way, while smaller inputs are several times
/// faster inline than through a pool dispatch.
constexpr size_t kParallelConcatenateMinRows = size_t{1} << 14;

/// Heap bytes behind `s`: none while its characters sit in the small-string
/// buffer inside the object (the header is counted with the vector), else
/// the allocated capacity plus the terminator.
size_t StringHeapBytes(const std::string& s) {
  const char* data = s.data();
  const char* self = reinterpret_cast<const char*>(&s);
  std::less<const char*> before;
  bool in_object = !before(data, self) && before(data, self + sizeof(s));
  return in_object ? 0 : s.capacity() + 1;
}

}  // namespace

CandidateSet::NameId CandidateSet::AddTargetName(std::string name) {
  names_.push_back(std::move(name));
  return static_cast<NameId>(names_.size() - 1);
}

size_t CandidateSet::Append(Span<const TrajIndex> members,
                            Span<const TrajIndex> invalid, NameId target,
                            double similarity) {
  assert(members.size() <= kMaxRepairMembers);
  // Both lists ascend and invalid ⊆ members: one merge walk marks each
  // invalid member's position.
  InvalidMask mask = 0;
  size_t k = 0;
  for (TrajIndex t : invalid) {
    while (members[k] != t) ++k;
    mask |= InvalidMask{1} << k++;
  }
  members_.insert(members_.end(), members.begin(), members.end());
  offsets_.push_back(members_.size());
  invalid_.push_back(mask);
  targets_.push_back(target);
  similarity_.push_back(similarity);
  rarity_.push_back(0);
  effectiveness_.push_back(0.0);
  return size() - 1;
}

Result<CandidateSet> CandidateSet::Concatenate(
    std::vector<CandidateSet>&& blocks, int threads) {
  // Where block b lands: its first row, member entry and name.
  struct Base {
    size_t row = 0, entry = 0, name = 0;
  };
  std::vector<Base> base(blocks.size() + 1);
  size_t non_empty = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const CandidateSet& block = blocks[b];
    base[b + 1] = {base[b].row + block.size(),
                   base[b].entry + block.members_.size(),
                   base[b].name + block.names_.size()};
    if (!block.empty()) ++non_empty;
  }
  CandidateSet out;
  if (non_empty == 1) {
    for (CandidateSet& block : blocks) {
      if (!block.empty()) out = std::move(block);
    }
    blocks.clear();
    return out;
  }

  const Base& total = base.back();
  out.offsets_.resize(total.row + 1);
  out.members_.resize(total.entry);
  out.invalid_.resize(total.row);
  out.targets_.resize(total.row);
  out.similarity_.resize(total.row);
  out.rarity_.resize(total.row);
  out.effectiveness_.resize(total.row);
  out.names_.reserve(total.name);
  for (CandidateSet& block : blocks) {
    out.names_.insert(out.names_.end(),
                      std::make_move_iterator(block.names_.begin()),
                      std::make_move_iterator(block.names_.end()));
  }

  // One loop item per input block: each copies into its own disjoint
  // ranges of the output columns.
  if (total.row < kParallelConcatenateMinRows) threads = 1;
  IDREPAIR_RETURN_NOT_OK(ParallelFor(
      &ThreadPool::Default(), blocks.size(), threads, 1,
      [&](size_t b, size_t /*begin*/, size_t /*end*/) {
        CandidateSet& block = blocks[b];
        const Base& at = base[b];
        auto copy = [&](const auto& from, auto& to, size_t first) {
          std::copy(from.begin(), from.end(), to.begin() + first);
        };
        copy(block.members_, out.members_, at.entry);
        // Shifted row ends; out.offsets_[0] keeps its initial 0.
        for (size_t r = 0; r < block.size(); ++r) {
          out.offsets_[at.row + r + 1] = block.offsets_[r + 1] + at.entry;
          out.targets_[at.row + r] =
              block.targets_[r] + static_cast<NameId>(at.name);
        }
        copy(block.invalid_, out.invalid_, at.row);
        copy(block.similarity_, out.similarity_, at.row);
        copy(block.rarity_, out.rarity_, at.row);
        copy(block.effectiveness_, out.effectiveness_, at.row);
        block = CandidateSet();  // free on the worker that copied it
        return Status::OK();
      }));
  blocks.clear();
  return out;
}

void CandidateSet::Reserve(size_t rows) {
  offsets_.reserve(rows + 1);
  invalid_.reserve(rows);
  targets_.reserve(rows);
  names_.reserve(rows);
  similarity_.reserve(rows);
  rarity_.reserve(rows);
  effectiveness_.reserve(rows);
}

size_t CandidateSet::MemoryBytes() const {
  size_t names = names_.capacity() * sizeof(std::string);
  for (const std::string& s : names_) names += StringHeapBytes(s);
  return offsets_.capacity() * sizeof(uint64_t) +
         members_.capacity() * sizeof(TrajIndex) +
         invalid_.capacity() * sizeof(InvalidMask) +
         targets_.capacity() * sizeof(NameId) + names +
         similarity_.capacity() * sizeof(double) +
         rarity_.capacity() * sizeof(uint32_t) +
         effectiveness_.capacity() * sizeof(double);
}

namespace {

/// Per-block memo of similarity.Similarity(id(a), id(b)) keyed by the
/// ordered index pair. The similarity is a pure function of the two ID
/// strings, so a memo hit returns the exact double a recomputation would —
/// byte-identity holds at every thread count even though each block's memo
/// sees a different call history. Cliques within a component overlap
/// heavily, making the hit rate the dominant generation speedup on dense
/// instances.
///
/// The backing table is borrowed, not owned: blocks draw it from
/// per-thread scratch (GenerationScratch) so its capacity survives across
/// blocks, and Reset() it per block — both because
/// TrajIndex keys are component-local under the streaming engine (a
/// stale entry would answer for the wrong pair) and so the merged
/// similarity_cache_hits stays a pure function of the block decomposition
/// rather than of which thread ran which block.
class PairSimilarityMemo {
 public:
  PairSimilarityMemo(const TrajectorySet& set, const IdSimilarity& similarity,
                     FlatHash64Map<double>& table)
      : set_(set), similarity_(similarity), memo_(table) {}

  double Get(TrajIndex a, TrajIndex b) {
    // Key cannot collide with the table's reserved empty marker: both
    // halves would have to be 0xffffffff, which no TrajectorySet reaches.
    uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    if (double* v = memo_.Find(key)) {
      ++hits_;
      return *v;
    }
    double v = similarity_.Similarity(set_.at(a).id(), set_.at(b).id());
    memo_.Insert(key, v);
    return v;
  }

  size_t hits() const { return hits_; }

 private:
  const TrajectorySet& set_;
  const IdSimilarity& similarity_;
  FlatHash64Map<double>& memo_;
  size_t hits_ = 0;
};

/// Per-thread workspace for generation blocks: the similarity
/// memo's table, the block's target-name ids (TrajIndex -> NameId in the
/// block's CandidateSet) and the invalid-member assembly buffer, reused
/// across every block a thread claims instead of reallocated per block.
/// Reset per block where required (memo and names: always; invalid:
/// cleared per clique).
struct GenerationScratch {
  FlatHash64Map<double> memo;
  FlatHash64Map<CandidateSet::NameId> target_names;
  std::vector<TrajIndex> invalid;
};

/// Eq. (5) over any source of pair similarities: `pair_similarity(i, j)`
/// returns sim(id(Ti), id(Tj)). One loop for the public entry point and the
/// memoized generator, so both share the float order and the tie-break.
template <typename PairSimilarity>
TrajIndex AssignTargetIdWith(const TrajectorySet& set,
                             Span<const TrajIndex> members,
                             PairSimilarity&& pair_similarity) {
  TrajIndex best = members.front();
  double best_score = -1.0;
  for (TrajIndex i : members) {
    const Trajectory& ti = set.at(i);
    double score = 0.0;
    for (TrajIndex j : members) {
      const Trajectory& tj = set.at(j);
      double ratio =
          static_cast<double>(ti.size()) / static_cast<double>(tj.size());
      score += ratio * pair_similarity(i, j);
    }
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

}  // namespace

TrajIndex AssignTargetId(const TrajectorySet& set,
                         Span<const TrajIndex> members,
                         const IdSimilarity& similarity) {
  return AssignTargetIdWith(set, members, [&](TrajIndex i, TrajIndex j) {
    return similarity.Similarity(set.at(i).id(), set.at(j).id());
  });
}

Result<CandidateSet> GenerateCandidates(
    const TrajectorySet& set, const TrajectoryGraph& gm,
    const PredicateEvaluator& pred, const RepairOptions& options,
    const IdSimilarity& similarity, const std::vector<bool>& is_valid,
    GenerationStats* stats) {
  IDREPAIR_RETURN_NOT_OK(options.Validate());
  CliqueEnumerator enumerator(set, gm, pred, options);
  std::vector<TrajIndex> seeds = enumerator.SeedVertices();

  // Block boundaries are a pure function of (|seeds|, grain), so the
  // decomposition — and therefore the merged output — never depends on
  // timing even though blocks are CLAIMED dynamically: a seed rooting a
  // heavy clique subtree delays only the worker that claimed its block,
  // not a fixed range-mate. One seed owns the whole subtree of cliques it
  // roots, which is exactly the intra-component unit of work.
  const int threads = options.exec.ResolvedThreads();
  const size_t grain = ResolveGrain(options.exec.grain,
                                    seeds.size(), threads,
                                    kCandidateGrainCalibration);
  const size_t num_blocks =
      seeds.empty() ? 0 : (seeds.size() + grain - 1) / grain;
  // One private slot per block: the candidates rooted at its seed range,
  // in emission order, and its stats. Blocks never share mutable state.
  std::vector<CandidateSet> block_candidates(num_blocks);
  std::vector<GenerationStats> block_stats(num_blocks);

  ScheduleStats sched;
  IDREPAIR_RETURN_NOT_OK(ParallelFor(
      &ThreadPool::Default(), seeds.size(), threads, grain,
      [&](size_t block, size_t begin, size_t end) {
        IDREPAIR_FAULT_INJECT("repair.generation.shard");
        obs::TraceSpan span("generation.shard", block);
        CandidateSet& candidates = block_candidates[block];
        GenerationStats& block_stat = block_stats[block];
        // Dies with its thread. A previous block of this thread may have
        // left entries behind: reset what the block reads before using it.
        thread_local GenerationScratch scratch;
        scratch.memo.Reset();
        scratch.target_names.Reset();
        PairSimilarityMemo memo(set, similarity, scratch.memo);
        block_stat.clique_stats = enumerator.EnumerateSeedRange(
            seeds, begin, end,
            [&](const std::vector<TrajIndex>& clique,
                const std::vector<MergedPoint>& merged) {
              ++block_stat.jnb_checks;
              if (!pred.JnbMerged(merged)) return;
              ++block_stat.joinable_subsets;

              std::vector<TrajIndex>& invalid = scratch.invalid;
              invalid.clear();
              for (TrajIndex m : clique) {
                if (!is_valid[m]) invalid.push_back(m);
              }
              // ω would be 0 (Eq. 3).
              if (invalid.empty()) return;

              TrajIndex target = AssignTargetIdWith(
                  set, clique,
                  [&](TrajIndex i, TrajIndex j) { return memo.Get(i, j); });
              double min_sim = 1.0;
              for (TrajIndex m : clique) {
                min_sim = std::min(min_sim, memo.Get(target, m));
              }
              CandidateSet::NameId* name = scratch.target_names.Find(target);
              CandidateSet::NameId name_id;
              if (name != nullptr) {
                name_id = *name;
              } else {
                name_id = candidates.AddTargetName(set.at(target).id());
                scratch.target_names.Insert(target, name_id);
              }
              candidates.Append(clique, invalid, name_id, min_sim);
            });
        block_stat.similarity_cache_hits = memo.hits();
        return Status::OK();
      },
      &sched));

  // Deterministic reduction: concatenate the block outputs and fold the
  // counters in block order, reproducing the sequential enumeration's rows
  // exactly.
  GenerationStats merged_stats;
  for (const GenerationStats& s : block_stats) merged_stats.MergeFrom(s);
  merged_stats.sched_blocks = sched.blocks;
  merged_stats.sched_workers = sched.workers;
  merged_stats.sched_imbalance = sched.Imbalance();
  if (stats != nullptr) *stats = merged_stats;
  return CandidateSet::Concatenate(std::move(block_candidates), threads);
}

Status ComputeEffectiveness(CandidateSet& candidates,
                            const RepairOptions& options, size_t num_trajs) {
  obs::TraceSpan span("generation.effectiveness");
  // d(T): how many candidate repairs cover each invalid trajectory. One
  // serial O(Σ|ivt|) counting pass: per-block arrays would cost
  // O(blocks × num_trajs) to clear and reduce.
  std::vector<uint32_t> degree(num_trajs, 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates.ForEachInvalid(i, [&](TrajIndex t) { ++degree[t]; });
  }

  // Scoring touches only the candidate's own row plus the finished degree
  // array, so blocks need no reduction.
  const int threads = options.exec.ResolvedThreads();
  return ParallelFor(
      &ThreadPool::Default(), candidates.size(), threads,
      ResolveGrain(options.exec.grain, candidates.size(), threads,
                   kCandidateGrainCalibration),
      [&](size_t /*block*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          uint32_t ra = 0;
          bool first = true;
          candidates.ForEachInvalid(i, [&](TrajIndex t) {
            uint32_t d = degree[t];
            if (first) {
              ra = d;
              first = false;
            } else if (options.rarity_aggregation == RarityAggregation::kMin) {
              ra = std::min(ra, d);
            } else {
              ra = std::max(ra, d);
            }
          });
          double ivt = static_cast<double>(candidates.num_invalid(i));
          double base = static_cast<double>(ra + options.rarity_base_offset);
          // ω(R) = sim(R) + λ · log_base(|ivt(R)|); |ivt| >= 1 by
          // construction.
          candidates.set_scores(
              i, ra,
              candidates.similarity(i) +
                  options.lambda * (std::log(ivt) / std::log(base)));
        }
        return Status::OK();
      });
}

}  // namespace idrepair

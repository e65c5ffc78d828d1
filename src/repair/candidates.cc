#include "repair/candidates.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/flat_hash.h"
#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace idrepair {

size_t CandidateSet::Append(Span<const TrajIndex> members,
                            Span<const TrajIndex> invalid,
                            std::string target_id, double similarity) {
  member_sets_.push_back(dict_.Intern(members));
  invalid_sets_.push_back(dict_.Intern(invalid));
  target_ids_.push_back(std::move(target_id));
  similarity_.push_back(similarity);
  rarity_.push_back(0);
  effectiveness_.push_back(0.0);
  return size() - 1;
}

size_t CandidateSet::AppendFrom(const CandidateSet& other, size_t r) {
  size_t row =
      Append(other.members(r), other.invalid_members(r), other.target_ids_[r],
             other.similarity_[r]);
  rarity_[row] = other.rarity_[r];
  effectiveness_[row] = other.effectiveness_[r];
  return row;
}

void CandidateSet::Reserve(size_t rows) {
  member_sets_.reserve(rows);
  invalid_sets_.reserve(rows);
  target_ids_.reserve(rows);
  similarity_.reserve(rows);
  rarity_.reserve(rows);
  effectiveness_.reserve(rows);
}

size_t CandidateSet::MemoryBytes() const {
  size_t strings = target_ids_.capacity() * sizeof(std::string);
  for (const std::string& s : target_ids_) {
    // Only out-of-line payloads add heap bytes; SSO ids live in the header
    // already counted above.
    if (s.capacity() > sizeof(std::string) - sizeof(char*) - 1) {
      strings += s.capacity() + 1;
    }
  }
  return dict_.MemoryBytes() + member_sets_.capacity() * sizeof(SetId) +
         invalid_sets_.capacity() * sizeof(SetId) + strings +
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
/// The backing table is borrowed, not owned: blocks draw it from the
/// pool's per-thread scratch (ThreadPool::LocalScratch) so its capacity
/// survives across blocks, and Reset() it per block — both because
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

/// Pool-owned per-thread workspace for generation blocks: the similarity
/// memo's table and the invalid-member assembly buffer, reused across every
/// block a thread claims instead of reallocated per block. Reset per block
/// where required (memo: always; invalid: cleared per clique).
struct GenerationScratch {
  FlatHash64Map<double> memo;
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

/// One block's private slice of the generation: the candidates rooted at
/// its seed range, in emission order, plus its stats. Blocks never share
/// mutable state; the merge walks slots in block order.
struct GenerationShard {
  CandidateSet candidates;
  GenerationStats stats;
};

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
  CliqueEnumerator enumerator(set, gm, pred, options);
  std::vector<TrajIndex> seeds = enumerator.SeedVertices();

  // Block boundaries are a pure function of (|seeds|, grain), so the
  // decomposition — and therefore the merged output — never depends on
  // timing even though blocks are CLAIMED dynamically: a seed rooting a
  // heavy clique subtree delays only the worker that claimed its block,
  // not a fixed range-mate. One seed owns the whole subtree of cliques it
  // roots, which is exactly the intra-component unit of work.
  const int threads = options.exec.ResolvedThreads();
  const size_t grain = ResolveGrain(options.exec.min_candidate_grain,
                                    seeds.size(), threads,
                                    kCandidateGrainCalibration);
  const size_t num_blocks =
      seeds.empty() ? 0 : (seeds.size() + grain - 1) / grain;
  std::vector<GenerationShard> slots(num_blocks);

  ThreadPool* pool = &ThreadPool::Default();
  DynamicScheduleStats sched;
  IDREPAIR_RETURN_NOT_OK(ParallelForDynamic(
      pool, seeds.size(), threads, grain,
      [&](size_t block, size_t begin, size_t end) {
        IDREPAIR_FAULT_INJECT("repair.generation.shard");
        obs::TraceSpan span("generation.shard", block);
        GenerationShard& slot = slots[block];
        GenerationScratch& scratch = pool->LocalScratch<GenerationScratch>();
        scratch.memo.Reset();
        PairSimilarityMemo memo(set, similarity, scratch.memo);
        slot.stats.clique_stats = enumerator.EnumerateSeedRange(
            seeds, begin, end,
            [&](const std::vector<TrajIndex>& clique,
                const std::vector<MergedPoint>& merged) {
              ++slot.stats.jnb_checks;
              if (!pred.JnbMerged(merged)) return;
              ++slot.stats.joinable_subsets;

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
              slot.candidates.Append(clique, invalid, set.at(target).id(),
                                     min_sim);
            });
        slot.stats.similarity_cache_hits = memo.hits();
        return Status::OK();
      },
      &sched));

  // Deterministic reduction: concatenate emissions and fold counters in
  // block order, reproducing the sequential enumeration exactly.
  CandidateSet out;
  GenerationStats merged_stats;
  size_t total = 0;
  for (const GenerationShard& slot : slots) total += slot.candidates.size();
  out.Reserve(total);
  for (GenerationShard& slot : slots) {
    merged_stats.MergeFrom(slot.stats);
    for (size_t r = 0; r < slot.candidates.size(); ++r) {
      out.AppendFrom(slot.candidates, r);
    }
  }
  merged_stats.sched_blocks = sched.blocks;
  merged_stats.sched_workers = sched.workers;
  merged_stats.sched_imbalance = sched.Imbalance();
  if (stats != nullptr) *stats = merged_stats;
  return out;
}

Status ComputeEffectiveness(CandidateSet& candidates,
                            const RepairOptions& options, size_t num_trajs) {
  obs::TraceSpan span("generation.effectiveness");
  const int threads = options.exec.ResolvedThreads();
  auto shards = SplitRange(
      candidates.size(), threads,
      ResolveGrain(options.exec.min_candidate_grain, candidates.size(),
                   threads, kCandidateGrainCalibration));

  // d(T): how many candidate repairs cover each invalid trajectory. Each
  // shard counts its candidate range into a private array; the reduction
  // adds the arrays in index order (integer sums, so any order would give
  // the same totals — fixed order keeps the invariant self-evident).
  std::vector<uint32_t> degree(num_trajs, 0);
  if (shards.size() <= 1) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      for (TrajIndex t : candidates.invalid_members(i)) ++degree[t];
    }
  } else {
    std::vector<std::vector<uint32_t>> shard_degree(shards.size());
    IDREPAIR_RETURN_NOT_OK(ParallelFor(
        &ThreadPool::Default(), shards,
        [&](size_t shard, size_t begin, size_t end) {
          std::vector<uint32_t>& d = shard_degree[shard];
          d.assign(num_trajs, 0);
          for (size_t i = begin; i < end; ++i) {
            for (TrajIndex t : candidates.invalid_members(i)) ++d[t];
          }
          return Status::OK();
        }));
    for (const std::vector<uint32_t>& d : shard_degree) {
      for (size_t t = 0; t < num_trajs; ++t) degree[t] += d[t];
    }
  }

  // Scoring touches only the candidate's own row plus the finished degree
  // array, so the same shards run it without any reduction.
  return ParallelFor(
      &ThreadPool::Default(), shards,
      [&](size_t /*shard*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          uint32_t ra = 0;
          bool first = true;
          for (TrajIndex t : candidates.invalid_members(i)) {
            uint32_t d = degree[t];
            if (first) {
              ra = d;
              first = false;
            } else if (options.rarity_aggregation == RarityAggregation::kMin) {
              ra = std::min(ra, d);
            } else {
              ra = std::max(ra, d);
            }
          }
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

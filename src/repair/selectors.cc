#include "repair/selectors.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/bitset.h"
#include "exec/grain.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Selection-phase instrumentation, resolved once (same pattern as
/// RepairInstruments). Both counters are pure functions of the input and
/// options — the parallel selectors produce the same commit/invalidation
/// totals at any thread count — hence Stability::kStable.
struct SelectionInstruments {
  obs::Counter* commits;
  obs::Counter* invalidations;

  static SelectionInstruments& Get() {
    static SelectionInstruments* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* si = new SelectionInstruments();
      si->commits = reg.GetCounter(
          "idrepair_selection_commits_total", obs::Stability::kStable,
          "Candidate repairs committed by the selection phase");
      si->invalidations = reg.GetCounter(
          "idrepair_selection_invalidations_total", obs::Stability::kStable,
          "Candidates invalidated by committed repairs (conflict-neighbor "
          "discards on the graph path; cover-mask rejections on the EMAX "
          "fast path)");
      return si;
    }();
    return *m;
  }
};

void RecordSelection(uint64_t commits, uint64_t invalidations) {
  if (!obs::Enabled()) return;
  SelectionInstruments& inst = SelectionInstruments::Get();
  inst.commits->Increment(commits);
  inst.invalidations->Increment(invalidations);
}

/// The EMAX pick order as a strict total order: higher ω first, candidate
/// index breaking ties. Because no two entries compare equal, a plain sort
/// under it yields exactly what std::stable_sort by descending ω yields —
/// and the result is independent of how the range was sharded first.
struct EffectivenessOrder {
  const CandidateSet* candidates;
  bool operator()(RepairIndex a, RepairIndex b) const {
    double ea = candidates->effectiveness(a);
    double eb = candidates->effectiveness(b);
    if (ea != eb) return ea > eb;
    return a < b;
  }
};

/// Candidate indices sorted into EMAX pick order, shard-sorted over the
/// exec pool above the grain and k-way-merged on the calling thread. The
/// merge compares shard heads under the same total order, so the output is
/// byte-identical to a serial sort at any thread count.
Result<std::vector<RepairIndex>> OrderByEffectiveness(
    const CandidateSet& candidates, const ExecOptions& exec) {
  const size_t n = candidates.size();
  std::vector<RepairIndex> order(n);
  std::iota(order.begin(), order.end(), RepairIndex{0});
  EffectivenessOrder before{&candidates};

  const int threads = exec.ResolvedThreads();
  auto shards = SplitRange(n, threads,
                           ResolveGrain(exec.min_selection_grain, n, threads,
                                        kSelectionGrainCalibration));
  if (shards.size() <= 1) {
    if (n != 0) IDREPAIR_FAULT_INJECT("repair.selection.shard");
    std::sort(order.begin(), order.end(), before);
    return order;
  }

  IDREPAIR_RETURN_NOT_OK(ParallelFor(
      &ThreadPool::Default(), shards,
      [&](size_t shard, size_t begin, size_t end) {
        IDREPAIR_FAULT_INJECT("repair.selection.shard");
        obs::TraceSpan span("selection.sort.shard", shard);
        std::sort(order.begin() + begin, order.begin() + end, before);
        return Status::OK();
      }));

  std::vector<RepairIndex> merged;
  merged.reserve(n);
  std::vector<size_t> head(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) head[s] = shards[s].first;
  while (merged.size() < n) {
    size_t best = shards.size();
    for (size_t s = 0; s < shards.size(); ++s) {
      if (head[s] == shards[s].second) continue;
      if (best == shards.size() ||
          before(order[head[s]], order[head[best]])) {
        best = s;
      }
    }
    merged.push_back(order[head[best]++]);
  }
  return merged;
}

/// Shared greedy skeleton: visit vertices in the order produced by
/// `ordered`, take each undiscarded one, discard its neighbors.
std::vector<RepairIndex> GreedyByOrder(const RepairGraph& gr,
                                       const std::vector<RepairIndex>& order,
                                       const std::vector<bool>* skip) {
  std::vector<bool> discarded(gr.num_vertices(), false);
  std::vector<RepairIndex> out;
  for (RepairIndex v : order) {
    if (discarded[v]) continue;
    if (skip != nullptr && (*skip)[v]) continue;
    out.push_back(v);
    for (RepairIndex w : gr.Neighbors(v)) discarded[w] = true;
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<RepairIndex> EmaxSelector::Select(
    const RepairGraph& gr,
    const CandidateSet& candidates) const {
  std::vector<RepairIndex> order(gr.num_vertices());
  std::iota(order.begin(), order.end(), RepairIndex{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](RepairIndex a, RepairIndex b) {
                     return candidates.effectiveness(a) >
                            candidates.effectiveness(b);
                   });
  std::vector<bool> skip(gr.num_vertices(), false);
  for (RepairIndex v = 0; v < gr.num_vertices(); ++v) {
    skip[v] = candidates.effectiveness(v) <= 0.0;
  }
  return GreedyByOrder(gr, order, &skip);
}

Result<std::vector<RepairIndex>> EmaxSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  auto order = OrderByEffectiveness(candidates, ctx.exec);
  IDREPAIR_RETURN_NOT_OK(order.status());

  // The commit loop is inherently serial — whether vertex k commits depends
  // on every earlier commit — so it stays on this thread; only the
  // neighbor-invalidation fan after each commit is sharded. Shards touch
  // disjoint entries of `discarded` (neighbor lists are sorted-unique) and
  // the flags are bytes, not vector<bool> bits, so there is no write
  // overlap to race on.
  std::vector<uint8_t> discarded(gr.num_vertices(), 0);
  std::vector<RepairIndex> out;
  uint64_t commits = 0;
  uint64_t invalidations = 0;
  const int threads = ctx.exec.ResolvedThreads();
  // Hoisted per-commit scratch: the fan re-sizes it in place instead of
  // allocating a fresh vector per committed repair.
  std::vector<uint64_t> shard_invalidations;
  for (RepairIndex v : *order) {
    if (discarded[v]) continue;
    if (candidates.effectiveness(v) <= 0.0) continue;
    IDREPAIR_FAULT_INJECT("repair.selection.commit");
    if (ctx.deadline != nullptr && ctx.deadline->Expired()) break;
    out.push_back(v);
    ++commits;
    if (ctx.commit_order != nullptr) ctx.commit_order->push_back(v);

    Span<const RepairIndex> nbrs = gr.Neighbors(v);
    auto shards = SplitRange(
        nbrs.size(), threads,
        ResolveGrain(ctx.exec.min_selection_grain, nbrs.size(), threads,
                     kSelectionGrainCalibration));
    if (shards.size() <= 1) {
      for (RepairIndex w : nbrs) {
        if (!discarded[w]) {
          discarded[w] = 1;
          ++invalidations;
        }
      }
    } else {
      shard_invalidations.assign(shards.size(), 0);
      IDREPAIR_RETURN_NOT_OK(ParallelFor(
          &ThreadPool::Default(), shards,
          [&](size_t shard, size_t begin, size_t end) {
            IDREPAIR_FAULT_INJECT("repair.selection.shard");
            for (size_t i = begin; i < end; ++i) {
              RepairIndex w = nbrs[i];
              if (!discarded[w]) {
                discarded[w] = 1;
                ++shard_invalidations[shard];
              }
            }
            return Status::OK();
          }));
      for (uint64_t c : shard_invalidations) invalidations += c;
    }
  }
  std::sort(out.begin(), out.end());
  RecordSelection(commits, invalidations);
  return out;
}

namespace {

/// Dynamic degree-driven greedy shared by DMIN and DMAX.
std::vector<RepairIndex> DegreeGreedy(const RepairGraph& gr, bool minimize) {
  size_t n = gr.num_vertices();
  std::vector<bool> removed(n, false);
  std::vector<size_t> degree(n);
  for (RepairIndex v = 0; v < n; ++v) degree[v] = gr.Degree(v);
  std::vector<RepairIndex> out;
  size_t remaining = n;
  while (remaining > 0) {
    RepairIndex best = 0;
    bool found = false;
    for (RepairIndex v = 0; v < n; ++v) {
      if (removed[v]) continue;
      if (!found || (minimize ? degree[v] < degree[best]
                              : degree[v] > degree[best])) {
        best = v;
        found = true;
      }
    }
    assert(found);
    out.push_back(best);
    // Remove `best` and its surviving neighbors, updating degrees.
    auto remove_vertex = [&](RepairIndex v) {
      removed[v] = true;
      --remaining;
      for (RepairIndex w : gr.Neighbors(v)) {
        if (!removed[w]) --degree[w];
      }
    };
    remove_vertex(best);
    for (RepairIndex w : gr.Neighbors(best)) {
      if (!removed[w]) remove_vertex(w);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Exact-pick form of DegreeGreedy: same output, but the O(|Vr|) full
/// rescan per pick becomes a read of a tournament-tree root.
///
/// Each leaf holds one packed key per vertex — (degree << 32) | vertex for
/// DMIN, (0xFFFFFFFF - degree) << 32 | vertex for DMAX — and every inner
/// node the minimum of its children, so the root is the minimum degree
/// (maximum for DMAX) with the smallest vertex breaking ties: exactly the
/// vertex the reference's ascending scan with strict improvement picks.
/// Removed vertices hold kEmpty. A commit re-keys each touched vertex's leaf
/// once, walking up only while the ancestor minimum changes; the tree never
/// holds a stale entry.
Result<std::vector<RepairIndex>> DegreeGreedyExact(
    const RepairGraph& gr, bool minimize, const SelectionContext& ctx) {
  constexpr uint64_t kEmpty = ~uint64_t{0};
  const size_t n = gr.num_vertices();
  std::vector<uint32_t> degree(n);
  auto key = [&](RepairIndex v) {
    uint64_t rank = minimize ? degree[v] : 0xFFFFFFFFu - degree[v];
    return rank << 32 | v;
  };
  size_t leaves = 1;
  while (leaves < n) leaves *= 2;
  std::vector<uint64_t> tree(2 * leaves, kEmpty);
  for (RepairIndex v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(gr.Degree(v));
    tree[leaves + v] = key(v);
  }
  for (size_t i = leaves - 1; i >= 1; --i) {
    tree[i] = std::min(tree[2 * i], tree[2 * i + 1]);
  }
  auto set_leaf = [&](RepairIndex v, uint64_t k) {
    size_t i = leaves + v;
    tree[i] = k;
    for (i /= 2; i >= 1; i /= 2) {
      uint64_t m = std::min(tree[2 * i], tree[2 * i + 1]);
      if (tree[i] == m) break;
      tree[i] = m;
    }
  };

  std::vector<uint8_t> removed(n, 0);
  // touched_at[w] == commits marks w as already collected this commit.
  std::vector<uint64_t> touched_at(n, 0);
  std::vector<RepairIndex> out;
  std::vector<RepairIndex> batch;
  std::vector<RepairIndex> touched;
  uint64_t commits = 0;
  uint64_t invalidations = 0;
  while (tree[1] != kEmpty) {
    RepairIndex v = static_cast<RepairIndex>(tree[1]);
    IDREPAIR_FAULT_INJECT("repair.selection.commit");
    if (ctx.deadline != nullptr && ctx.deadline->Expired()) break;
    out.push_back(v);
    ++commits;
    if (ctx.commit_order != nullptr) ctx.commit_order->push_back(v);

    // Commit removes v and its surviving neighbors as one batch.
    batch.clear();
    batch.push_back(v);
    removed[v] = 1;
    for (RepairIndex w : gr.Neighbors(v)) {
      if (!removed[w]) {
        removed[w] = 1;
        ++invalidations;
        batch.push_back(w);
      }
    }
    for (RepairIndex u : batch) set_leaf(u, kEmpty);

    // Every surviving neighbor of a batch member loses one incident edge
    // per adjacent batch member; its leaf is re-keyed once at the end.
    touched.clear();
    for (RepairIndex u : batch) {
      for (RepairIndex w : gr.Neighbors(u)) {
        if (removed[w]) continue;
        --degree[w];
        if (touched_at[w] != commits) {
          touched_at[w] = commits;
          touched.push_back(w);
        }
      }
    }
    for (RepairIndex w : touched) set_leaf(w, key(w));
  }
  std::sort(out.begin(), out.end());
  RecordSelection(commits, invalidations);
  return out;
}

}  // namespace

std::vector<RepairIndex> DminSelector::Select(
    const RepairGraph& gr,
    const CandidateSet& candidates) const {
  (void)candidates;
  return DegreeGreedy(gr, /*minimize=*/true);
}

Result<std::vector<RepairIndex>> DminSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  (void)candidates;
  return DegreeGreedyExact(gr, /*minimize=*/true, ctx);
}

std::vector<RepairIndex> DmaxSelector::Select(
    const RepairGraph& gr,
    const CandidateSet& candidates) const {
  (void)candidates;
  return DegreeGreedy(gr, /*minimize=*/false);
}

Result<std::vector<RepairIndex>> DmaxSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  (void)candidates;
  return DegreeGreedyExact(gr, /*minimize=*/false, ctx);
}

namespace {

/// Branch-and-bound maximum-weight independent set over one connected
/// component (vertex ids are component-local). Uses degree-0/1 reductions,
/// a greedy-matching upper bound (for every matched edge at most one
/// endpoint can be taken, so the lighter endpoint's weight is provably
/// unreachable), and max-degree pivoting.
class ComponentSolver {
 public:
  ComponentSolver(const std::vector<std::vector<uint32_t>>& adj,
                  const std::vector<double>& weight)
      : adj_(adj), weight_(weight), n_(weight.size()) {}

  std::vector<uint32_t> Solve() {
    std::vector<uint32_t> avail(n_);
    std::iota(avail.begin(), avail.end(), 0u);
    best_value_ = -1.0;
    std::vector<uint32_t> chosen;
    Recurse(std::move(avail), 0.0, chosen);
    return best_set_;
  }

  double best_value() const { return best_value_; }

 private:
  bool Adjacent(uint32_t u, uint32_t v) const {
    return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
  }

  void Recurse(std::vector<uint32_t> avail, double current,
               std::vector<uint32_t>& chosen) {
    size_t chosen_mark = chosen.size();
    std::vector<uint8_t> in_avail(n_, 0);
    std::vector<uint32_t> degree(n_, 0);
    std::vector<uint32_t> only_neighbor(n_, 0);

    // ---- Reductions to a fixpoint ----
    // degree-0: always take. degree-1 with weight >= its neighbor: take it
    // and drop the neighbor (domination).
    bool changed = true;
    while (changed && !avail.empty()) {
      changed = false;
      for (uint32_t v : avail) in_avail[v] = 1;
      for (uint32_t v : avail) {
        uint32_t d = 0;
        uint32_t last = 0;
        for (uint32_t w : adj_[v]) {
          if (in_avail[w]) {
            ++d;
            last = w;
          }
        }
        degree[v] = d;
        only_neighbor[v] = last;
      }
      for (uint32_t v : avail) {
        if (!in_avail[v]) continue;
        if (degree[v] == 0) {
          chosen.push_back(v);
          current += weight_[v];
          in_avail[v] = 0;
          changed = true;
        } else if (degree[v] == 1) {
          uint32_t u = only_neighbor[v];
          if (in_avail[u] && weight_[v] >= weight_[u]) {
            chosen.push_back(v);
            current += weight_[v];
            in_avail[v] = 0;
            in_avail[u] = 0;
            changed = true;
          }
        }
      }
      if (changed) {
        std::vector<uint32_t> next;
        next.reserve(avail.size());
        for (uint32_t v : avail) {
          if (in_avail[v]) next.push_back(v);
        }
        for (uint32_t v : avail) in_avail[v] = 0;  // reset for next pass
        avail = std::move(next);
      }
    }

    if (avail.empty()) {
      if (current > best_value_) {
        best_value_ = current;
        best_set_ = chosen;
      }
      chosen.resize(chosen_mark);
      return;
    }
    // The reduction loop exits with in_avail set for the surviving set.
    for (uint32_t v : avail) in_avail[v] = 1;

    // ---- Greedy-matching upper bound ----
    double avail_weight = 0.0;
    for (uint32_t v : avail) avail_weight += weight_[v];
    double penalty = 0.0;
    {
      std::vector<uint8_t> matched(n_, 0);
      for (uint32_t v : avail) {
        if (matched[v]) continue;
        for (uint32_t w : adj_[v]) {
          if (w <= v || !in_avail[w] || matched[w]) continue;
          matched[v] = 1;
          matched[w] = 1;
          penalty += std::min(weight_[v], weight_[w]);
          break;
        }
      }
    }
    if (current + avail_weight - penalty <= best_value_) {
      chosen.resize(chosen_mark);
      return;
    }

    // ---- Branch on the max-degree (ties: heaviest) vertex ----
    uint32_t pivot = avail.front();
    uint32_t pivot_degree = 0;
    bool have_pivot = false;
    for (uint32_t v : avail) {
      uint32_t d = degree[v];
      if (!have_pivot || d > pivot_degree ||
          (d == pivot_degree && weight_[v] > weight_[pivot])) {
        pivot = v;
        pivot_degree = d;
        have_pivot = true;
      }
    }

    // Include branch: drop pivot and its neighbors.
    {
      std::vector<uint32_t> next;
      next.reserve(avail.size());
      for (uint32_t v : avail) {
        if (v != pivot && !Adjacent(pivot, v)) next.push_back(v);
      }
      chosen.push_back(pivot);
      Recurse(std::move(next), current + weight_[pivot], chosen);
      chosen.pop_back();
    }
    // Exclude branch: drop pivot only.
    {
      std::vector<uint32_t> next;
      next.reserve(avail.size());
      for (uint32_t v : avail) {
        if (v != pivot) next.push_back(v);
      }
      Recurse(std::move(next), current, chosen);
    }
    chosen.resize(chosen_mark);
  }

  const std::vector<std::vector<uint32_t>>& adj_;
  const std::vector<double>& weight_;
  size_t n_;
  double best_value_ = -1.0;
  std::vector<uint32_t> best_set_;
};

}  // namespace

std::vector<RepairIndex> ExactSelector::Select(
    const RepairGraph& gr,
    const CandidateSet& candidates) const {
  size_t n = gr.num_vertices();
  // Connected components (repairs in different components never conflict).
  std::vector<int64_t> component(n, -1);
  std::vector<RepairIndex> out;
  std::vector<RepairIndex> stack;
  int64_t num_components = 0;
  for (RepairIndex s = 0; s < n; ++s) {
    if (component[s] >= 0) continue;
    int64_t c = num_components++;
    stack.push_back(s);
    component[s] = c;
    std::vector<RepairIndex> members;
    while (!stack.empty()) {
      RepairIndex v = stack.back();
      stack.pop_back();
      members.push_back(v);
      for (RepairIndex w : gr.Neighbors(v)) {
        if (component[w] < 0) {
          component[w] = c;
          stack.push_back(w);
        }
      }
    }
    // Solve this component with local ids.
    std::sort(members.begin(), members.end());
    std::unordered_map<RepairIndex, uint32_t> local;
    local.reserve(members.size());
    for (uint32_t i = 0; i < members.size(); ++i) local[members[i]] = i;
    std::vector<std::vector<uint32_t>> adj(members.size());
    std::vector<double> weight(members.size());
    for (uint32_t i = 0; i < members.size(); ++i) {
      weight[i] = candidates.effectiveness(members[i]);
      for (RepairIndex w : gr.Neighbors(members[i])) {
        adj[i].push_back(local.at(w));
      }
      std::sort(adj[i].begin(), adj[i].end());
    }
    ComponentSolver solver(adj, weight);
    for (uint32_t v : solver.Solve()) out.push_back(members[v]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RepairIndex> OracleSelector::Select(
    const RepairGraph& gr,
    const CandidateSet& candidates) const {
  (void)gr;
  // Fragment sets per entity: entity -> sorted trajectory indices.
  std::unordered_map<std::string, std::vector<TrajIndex>> fragments;
  for (TrajIndex t = 0; t < true_ids_.size(); ++t) {
    fragments[true_ids_[t]].push_back(t);
  }
  std::vector<RepairIndex> out;
  for (RepairIndex r = 0; r < candidates.size(); ++r) {
    Span<const TrajIndex> members = candidates.members(r);
    const std::string& entity = true_ids_[members.front()];
    if (candidates.target_id(r) != entity) continue;
    auto it = fragments.find(entity);
    // Correct iff the members are exactly the entity's fragments (members
    // are already ascending; fragments built in ascending order).
    if (it != fragments.end() && members == it->second) out.push_back(r);
  }
  return out;
}

std::unique_ptr<RepairSelector> MakeSelector(SelectionAlgorithm algorithm) {
  switch (algorithm) {
    case SelectionAlgorithm::kEmax:
      return std::make_unique<EmaxSelector>();
    case SelectionAlgorithm::kDmin:
      return std::make_unique<DminSelector>();
    case SelectionAlgorithm::kDmax:
      return std::make_unique<DmaxSelector>();
    case SelectionAlgorithm::kExact:
      return std::make_unique<ExactSelector>();
  }
  return nullptr;
}

std::vector<RepairIndex> SelectEmaxByCover(
    const CandidateSet& candidates, size_t num_trajs) {
  std::vector<RepairIndex> order(candidates.size());
  std::iota(order.begin(), order.end(), RepairIndex{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](RepairIndex a, RepairIndex b) {
                     return candidates.effectiveness(a) >
                            candidates.effectiveness(b);
                   });
  DynamicBitset used(num_trajs);
  std::vector<RepairIndex> out;
  for (RepairIndex r : order) {
    if (candidates.effectiveness(r) <= 0.0) continue;
    Span<const TrajIndex> members = candidates.members(r);
    bool free = true;
    for (TrajIndex m : members) {
      if (used.Test(m)) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (TrajIndex m : members) used.Set(m);
    out.push_back(r);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<RepairIndex>> SelectEmaxByCover(
    const CandidateSet& candidates, size_t num_trajs,
    const SelectionContext& ctx) {
  auto order = OrderByEffectiveness(candidates, ctx.exec);
  IDREPAIR_RETURN_NOT_OK(order.status());
  DynamicBitset used(num_trajs);
  std::vector<RepairIndex> out;
  uint64_t commits = 0;
  uint64_t invalidations = 0;
  for (RepairIndex r : *order) {
    if (candidates.effectiveness(r) <= 0.0) continue;
    Span<const TrajIndex> members = candidates.members(r);
    bool free = true;
    for (TrajIndex m : members) {
      if (used.Test(m)) {
        free = false;
        break;
      }
    }
    if (!free) {
      ++invalidations;
      continue;
    }
    IDREPAIR_FAULT_INJECT("repair.selection.commit");
    if (ctx.deadline != nullptr && ctx.deadline->Expired()) break;
    for (TrajIndex m : members) used.Set(m);
    out.push_back(r);
    ++commits;
    if (ctx.commit_order != nullptr) ctx.commit_order->push_back(r);
  }
  std::sort(out.begin(), out.end());
  RecordSelection(commits, invalidations);
  return out;
}

double TotalEffectiveness(const CandidateSet& candidates,
                          const std::vector<RepairIndex>& selected) {
  double total = 0.0;
  for (RepairIndex r : selected) total += candidates.effectiveness(r);
  return total;
}

}  // namespace idrepair

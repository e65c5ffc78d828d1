#include "repair/selectors.h"

#include <algorithm>
#include <bit>
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

/// Selection-phase instrumentation, resolved once so the commit loop never
/// takes the registry lock. Both counters are pure functions of the input and
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
          "Candidates invalidated by committed repairs (cover-mask "
          "rejections under EMAX; conflict-neighbor discards under "
          "DMIN/DMAX)");
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
/// index breaking ties. Because no two entries compare equal, every sort
/// under it yields the same permutation — the one std::stable_sort by
/// descending ω yields — and the result is independent of how the range
/// was sharded first.
struct EffectivenessOrder {
  const CandidateSet* candidates;
  bool operator()(RepairIndex a, RepairIndex b) const {
    double ea = candidates->effectiveness(a);
    double eb = candidates->effectiveness(b);
    if (ea != eb) return ea > eb;
    return a < b;
  }
};

/// Candidate indices sorted into EMAX pick order: each block is sorted
/// over the exec pool, then adjacent sorted runs merge pairwise, widths
/// doubling, until one run remains — O(n log blocks) at any grain. Every
/// step sorts or merges under the same total order, so the output is
/// byte-identical at any thread count and grain.
Result<std::vector<RepairIndex>> OrderByEffectiveness(
    const CandidateSet& candidates, const ExecOptions& exec) {
  const size_t n = candidates.size();
  std::vector<RepairIndex> order(n);
  std::iota(order.begin(), order.end(), RepairIndex{0});
  EffectivenessOrder before{&candidates};

  const int threads = exec.ResolvedThreads();
  const size_t block = ResolveGrain(exec.grain, n, threads,
                                    kSelectionGrainCalibration);
  IDREPAIR_RETURN_NOT_OK(ParallelFor(
      &ThreadPool::Default(), n, threads, block,
      [&](size_t b, size_t begin, size_t end) {
        IDREPAIR_FAULT_INJECT("repair.selection.shard");
        obs::TraceSpan span("selection.sort.shard", b);
        // Same output as std::sort (the order is total); the merge sort
        // measured faster on this comparator (EXPERIMENTS.md).
        std::stable_sort(order.begin() + begin, order.begin() + end, before);
        return Status::OK();
      }));
  for (size_t width = block; width < n; width *= 2) {
    for (size_t lo = 0; lo + width < n; lo += 2 * width) {
      std::inplace_merge(order.begin() + lo, order.begin() + lo + width,
                         order.begin() + std::min(n, lo + 2 * width), before);
    }
  }
  return order;
}

}  // namespace

Result<std::vector<RepairIndex>> SelectByDegree(const CandidateSet& candidates,
                                                ConflictDegrees conflicts,
                                                bool minimize,
                                                const SelectionContext& ctx) {
  constexpr uint64_t kEmpty = ~uint64_t{0};
  const size_t n = candidates.size();
  std::vector<uint32_t>& degree = conflicts.degree;
  CoverIndex& cover = conflicts.cover;
  // Each leaf holds one packed key per vertex — (degree << 32) | vertex for
  // DMIN, (0xFFFFFFFF - degree) << 32 | vertex for DMAX — and every inner
  // node the minimum of its children, so the root is the minimum degree
  // (maximum for DMAX) with the smallest vertex breaking ties. Removed
  // vertices hold kEmpty. A commit re-keys each touched vertex's leaf once,
  // walking up only while the ancestor minimum changes; the tree never
  // holds a stale entry.
  auto key = [&](RepairIndex v) {
    uint64_t rank = minimize ? degree[v] : 0xFFFFFFFFu - degree[v];
    return rank << 32 | v;
  };
  size_t leaves = 1;
  while (leaves < n) leaves *= 2;
  std::vector<uint64_t> tree(2 * leaves, kEmpty);
  for (RepairIndex v = 0; v < n; ++v) tree[leaves + v] = key(v);
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
  // Cover(t)'s surviving repairs sit in entries[offsets[t] .. live_end[t]);
  // each scan keeps the survivors at the front, so a removed repair is
  // passed over at most once per cover list it sits in.
  std::vector<uint64_t> live_end(cover.offsets.begin() + 1,
                                 cover.offsets.end());
  auto for_each_live = [&](TrajIndex t, auto&& visit) {
    uint64_t kept = cover.offsets[t];
    for (uint64_t i = cover.offsets[t]; i < live_end[t]; ++i) {
      RepairIndex r = cover.entries[i];
      if (removed[r]) continue;
      cover.entries[kept++] = r;
      visit(r);
    }
    live_end[t] = kept;
  };
  // A commit's batch (v and the survivors it removes, at positions
  // 0..|batch|-1) is indexed by trajectory: each trajectory a batch repair
  // holds gets a slot (slot_of[t], valid while slot_commit[t] == commits)
  // listing the positions holding it in list[list_at[s] .. list_at[s + 1])
  // and, while the rows cost at most 16 words per list entry, as a bitset
  // row of `words` words. A survivor loses one degree per batch repair it
  // shares a trajectory with: the size of the union of its slots, read as
  // the popcount of their OR-ed rows or by stamping their lists, whichever
  // reads less.
  const size_t num_trajs = cover.offsets.size() - 1;
  std::vector<uint64_t> slot_commit(num_trajs, 0);
  std::vector<uint32_t> slot_of(num_trajs);
  std::vector<TrajIndex> slot_traj;
  std::vector<size_t> list_at;
  std::vector<size_t> cursor;
  std::vector<uint32_t> list;
  std::vector<uint64_t> rows;
  std::vector<uint32_t> held;  // w's slots
  // pos_seen[p] == stamp marks batch position p as counted for the
  // current survivor; the stamp only grows, so nothing is cleared.
  std::vector<uint64_t> pos_seen;
  uint64_t stamp = 0;
  // mark[w] == 2 * commits: w was touched by this commit through one slot;
  // 2 * commits + 1: through two or more.
  std::vector<uint64_t> mark(n, 0);
  std::vector<RepairIndex> out;
  std::vector<RepairIndex> batch;
  std::vector<RepairIndex> touched;
  std::vector<RepairIndex> shared;
  uint64_t commits = 0;
  uint64_t invalidations = 0;
  while (tree[1] != kEmpty) {
    RepairIndex v = static_cast<RepairIndex>(tree[1]);
    IDREPAIR_FAULT_INJECT("repair.selection.commit");
    if (ctx.deadline != nullptr && ctx.deadline->Expired()) break;
    out.push_back(v);
    ++commits;
    if (ctx.commit_order != nullptr) ctx.commit_order->push_back(v);

    // A commit removes v and every surviving repair that shares one of its
    // trajectories as one batch.
    batch.clear();
    batch.push_back(v);
    removed[v] = 1;
    for (TrajIndex t : candidates.members(v)) {
      for_each_live(t, [&](RepairIndex w) {
        removed[w] = 1;
        ++invalidations;
        batch.push_back(w);
      });
    }
    for (RepairIndex u : batch) set_leaf(u, kEmpty);

    // Slot the batch's trajectories and list each one's batch positions.
    slot_traj.clear();
    list_at.assign(1, 0);
    for (RepairIndex u : batch) {
      for (TrajIndex t : candidates.members(u)) {
        if (slot_commit[t] != commits) {
          slot_commit[t] = commits;
          slot_of[t] = static_cast<uint32_t>(slot_traj.size());
          slot_traj.push_back(t);
          list_at.push_back(0);
        }
        ++list_at[slot_of[t] + 1];
      }
    }
    const size_t slots = slot_traj.size();
    for (size_t s = 0; s < slots; ++s) list_at[s + 1] += list_at[s];
    list.resize(list_at[slots]);
    const size_t words = (batch.size() + 63) / 64;
    const bool use_rows = slots * words <= 16 * list.size();
    rows.assign(use_rows ? slots * words : 0, 0);
    cursor.assign(list_at.begin(), list_at.end() - 1);
    for (size_t p = 0; p < batch.size(); ++p) {
      for (TrajIndex t : candidates.members(batch[p])) {
        const uint32_t s = slot_of[t];
        list[cursor[s]++] = static_cast<uint32_t>(p);
        if (use_rows) rows[s * words + p / 64] |= uint64_t{1} << (p % 64);
      }
    }
    if (pos_seen.size() < batch.size()) pos_seen.resize(batch.size(), 0);

    // Every survivor in a slotted trajectory's live cover list is charged
    // that slot's batch repairs. One holding a single slotted trajectory is
    // then exact; one holding several (marked 2 * commits + 1) was charged
    // once per shared trajectory for each batch repair, and gets the
    // surplus back from the exact union of its slots (unsigned arithmetic,
    // so a transient wrap cancels). Each touched leaf is re-keyed once.
    touched.clear();
    shared.clear();
    for (size_t s = 0; s < slots; ++s) {
      const auto listed = static_cast<uint32_t>(list_at[s + 1] - list_at[s]);
      for_each_live(slot_traj[s], [&](RepairIndex w) {
        degree[w] -= listed;
        if (mark[w] < 2 * commits) {
          mark[w] = 2 * commits;
          touched.push_back(w);
        } else if (mark[w] == 2 * commits) {
          mark[w] = 2 * commits + 1;
          shared.push_back(w);
        }
      });
    }
    for (RepairIndex w : shared) {
      held.clear();
      size_t listed = 0;
      for (TrajIndex t : candidates.members(w)) {
        if (slot_commit[t] != commits) continue;
        const uint32_t s = slot_of[t];
        held.push_back(s);
        listed += list_at[s + 1] - list_at[s];
      }
      uint32_t lost = 0;
      if (use_rows && (held.size() + 1) * words <= listed) {
        for (size_t k = 0; k < words; ++k) {
          uint64_t any = 0;
          for (uint32_t s : held) any |= rows[s * words + k];
          lost += static_cast<uint32_t>(std::popcount(any));
        }
      } else {
        ++stamp;
        for (uint32_t s : held) {
          for (size_t i = list_at[s]; i < list_at[s + 1]; ++i) {
            if (pos_seen[list[i]] == stamp) continue;
            pos_seen[list[i]] = stamp;
            ++lost;
          }
        }
      }
      degree[w] += static_cast<uint32_t>(listed) - lost;
    }
    for (RepairIndex w : touched) set_leaf(w, key(w));
  }
  std::sort(out.begin(), out.end());
  RecordSelection(commits, invalidations);
  return out;
}

namespace {

/// DMIN/DMAX as the selectors run them: the degree pass, then the picks.
Result<std::vector<RepairIndex>> DegreeGreedy(const CandidateSet& candidates,
                                              size_t num_trajs, bool minimize,
                                              const SelectionContext& ctx) {
  auto conflicts = ConflictDegrees::Count(candidates, num_trajs, ctx.exec);
  IDREPAIR_RETURN_NOT_OK(conflicts.status());
  return SelectByDegree(candidates, std::move(conflicts).value(), minimize,
                        ctx);
}

}  // namespace

Result<std::vector<RepairIndex>> EmaxSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  return SelectEmaxByCover(candidates, gr.num_trajs(), ctx);
}

Result<std::vector<RepairIndex>> DminSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  return DegreeGreedy(candidates, gr.num_trajs(), /*minimize=*/true, ctx);
}

Result<std::vector<RepairIndex>> DmaxSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  return DegreeGreedy(candidates, gr.num_trajs(), /*minimize=*/false, ctx);
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

Result<std::vector<RepairIndex>> ExactSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  (void)ctx;
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

Result<std::vector<RepairIndex>> OracleSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  (void)gr;
  (void)ctx;
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

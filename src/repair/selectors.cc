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
#include "fault/deadline.h"
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

/// DMIN (`minimize`) or DMAX: each pick is the surviving repair of minimum
/// (maximum) current Gr degree, smallest index on ties, read off a
/// tournament tree over packed (degree, vertex) keys. A commit removes the
/// pick and every surviving repair in its members' cover lists, and each
/// survivor that shares a trajectory with a removed repair loses one degree
/// per distinct removed neighbor; the commit reads each cover list its
/// batch touches once, whatever the number of removed repairs in it. The
/// loop works on one linear copy of `gr`'s degrees and cover entries, so
/// it never recounts. It is serial; it evaluates "repair.selection.commit"
/// and honors ctx.deadline before each commit (compatible-prefix cutoff).
Result<std::vector<RepairIndex>> SelectByDegree(const CandidateSet& candidates,
                                                const RepairGraph& gr,
                                                bool minimize,
                                                const SelectionContext& ctx) {
  constexpr uint64_t kEmpty = ~uint64_t{0};
  const size_t n = candidates.size();
  std::vector<uint32_t> degree = gr.degrees();
  const std::vector<uint64_t>& offsets = gr.cover().offsets;
  std::vector<RepairIndex> entries = gr.cover().entries;
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
  std::vector<uint64_t> live_end(offsets.begin() + 1, offsets.end());
  auto for_each_live = [&](TrajIndex t, auto&& visit) {
    uint64_t kept = offsets[t];
    for (uint64_t i = offsets[t]; i < live_end[t]; ++i) {
      RepairIndex r = entries[i];
      if (removed[r]) continue;
      entries[kept++] = r;
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
  const size_t num_trajs = gr.num_trajs();
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

}  // namespace

Result<std::vector<RepairIndex>> EmaxSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  return SelectEmaxByCover(candidates, gr.num_trajs(), ctx);
}

Result<std::vector<RepairIndex>> DminSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  return SelectByDegree(candidates, gr, /*minimize=*/true, ctx);
}

Result<std::vector<RepairIndex>> DmaxSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  return SelectByDegree(candidates, gr, /*minimize=*/false, ctx);
}

namespace {

/// Branch-and-bound for Eq. 4 over one conflict component at a time: a
/// maximum-ω set of pairwise disjoint repairs. A repair is *live* while
/// none of its trajectories is closed. Each node branches on the
/// trajectory t covered by the most live repairs: one child takes each of
/// t's live repairs (ω descending, lower index first), which closes all
/// its members, and a last child takes none, which closes t alone. Every
/// packing either holds exactly one repair containing t or none, so the
/// children are complete. A node is pruned when Ω + U ≤ best, where U sums,
/// over the trajectories, the largest share ω(R)/|ivt(R)| of a live R
/// holding t in ivt(R) (ω split over all members when ivt(R) is empty):
/// the repairs of a packing are disjoint, so their shares land on distinct
/// trajectories and U bounds every packing of the live repairs. The search
/// starts from an incumbent and replaces it only by a strictly larger Ω.
/// Closing a trajectory kills its live repairs onto a trail that a return
/// to the parent unwinds; the node stack is explicit, so depth never
/// touches the thread's stack.
class PackingSearch {
 public:
  /// One conflict component: its repairs with ω > 0 (the others are never
  /// taken), the trajectories they hold, and a packing of them to start
  /// from.
  struct Component {
    std::vector<RepairIndex> reps;
    std::vector<TrajIndex> trajs;
    std::vector<RepairIndex> incumbent;
  };

  PackingSearch(const CandidateSet& candidates, const CoverIndex& cover,
                const fault::Deadline* deadline)
      : candidates_(candidates),
        cover_(cover),
        deadline_(deadline),
        alive_(candidates.size(), 0),
        share_(candidates.size(), 0.0),
        live_(cover.offsets.size() - 1, 0),
        bound_(cover.offsets.size() - 1, 0.0) {}

  /// Returns the best packing of `c` found: its incumbent unless a strictly
  /// larger Ω turned up before the search ended or the deadline expired.
  std::vector<RepairIndex> Solve(Component& c) {
    for (RepairIndex r : c.reps) {
      alive_[r] = 1;
      const size_t split = candidates_.num_invalid(r) > 0
                               ? candidates_.num_invalid(r)
                               : candidates_.num_members(r);
      share_[r] = candidates_.effectiveness(r) / static_cast<double>(split);
      for (TrajIndex t : candidates_.members(r)) ++live_[t];
    }
    best_ = TotalEffectiveness(candidates_, c.incumbent);
    best_set_ = std::move(c.incumbent);
    Enter(c, 0.0);
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      Unwind(f.trail_mark);
      chosen_.resize(f.chosen_size);
      if (f.next > f.kids_end || Expired()) {
        kids_.resize(f.kids_begin);
        frames_.pop_back();
        continue;
      }
      const size_t i = f.next++;
      double omega = f.omega;
      if (i < f.kids_end) {
        const RepairIndex r = kids_[i];
        omega += candidates_.effectiveness(r);
        chosen_.push_back(r);
        for (TrajIndex t : candidates_.members(r)) Close(t);
      } else {
        Close(f.traj);
      }
      Enter(c, omega);
    }
    return std::move(best_set_);
  }

 private:
  struct Frame {
    TrajIndex traj;     // the trajectory branched on
    size_t kids_begin;  // its live repairs, kids_[kids_begin .. kids_end)
    size_t kids_end;
    size_t next;        // next child; kids_end is "take none"
    double omega;       // Ω of chosen_ at this node
    size_t trail_mark;  // trail_ size at this node
    size_t chosen_size;
  };

  bool Expired() const {
    return deadline_ != nullptr && deadline_->Expired();
  }

  /// Visits the node reached with Ω = `omega`: records it if no repair is
  /// live, pushes its frame unless it is pruned.
  void Enter(const Component& c, double omega) {
    if (Expired()) return;
    for (RepairIndex r : c.reps) {
      if (!alive_[r]) continue;
      auto lift = [&](TrajIndex t) {
        bound_[t] = std::max(bound_[t], share_[r]);
      };
      if (candidates_.num_invalid(r) > 0) {
        candidates_.ForEachInvalid(r, lift);
      } else {
        for (TrajIndex t : candidates_.members(r)) lift(t);
      }
    }
    double upper = 0.0;
    TrajIndex branch = 0;
    uint32_t most = 0;
    for (TrajIndex t : c.trajs) {
      upper += bound_[t];
      bound_[t] = 0.0;
      if (live_[t] > most) {
        most = live_[t];
        branch = t;
      }
    }
    if (omega + upper <= best_) return;
    if (most == 0) {
      best_ = omega;
      best_set_ = chosen_;
      return;
    }
    const size_t begin = kids_.size();
    for (RepairIndex r : cover_.Cover(branch)) {
      if (alive_[r]) kids_.push_back(r);
    }
    std::sort(kids_.begin() + begin, kids_.end(),
              EffectivenessOrder{&candidates_});
    frames_.push_back(Frame{branch, begin, kids_.size(), begin, omega,
                            trail_.size(), chosen_.size()});
  }

  /// Kills every live repair holding `t`.
  void Close(TrajIndex t) {
    for (RepairIndex r : cover_.Cover(t)) {
      if (!alive_[r]) continue;
      alive_[r] = 0;
      trail_.push_back(r);
      for (TrajIndex m : candidates_.members(r)) --live_[m];
    }
  }

  /// Revives the repairs killed since the trail held `mark` entries.
  void Unwind(size_t mark) {
    while (trail_.size() > mark) {
      const RepairIndex r = trail_.back();
      trail_.pop_back();
      alive_[r] = 1;
      for (TrajIndex m : candidates_.members(r)) ++live_[m];
    }
  }

  const CandidateSet& candidates_;
  const CoverIndex& cover_;
  const fault::Deadline* deadline_;
  std::vector<uint8_t> alive_;
  std::vector<double> share_;
  std::vector<uint32_t> live_;  // live repairs holding each trajectory
  std::vector<double> bound_;   // scratch of Enter, all-zero between uses
  std::vector<RepairIndex> trail_;
  std::vector<RepairIndex> kids_;
  std::vector<RepairIndex> chosen_;
  std::vector<Frame> frames_;
  double best_ = 0.0;
  std::vector<RepairIndex> best_set_;
};

}  // namespace

Result<std::vector<RepairIndex>> ExactSelector::Select(
    const RepairGraph& gr, const CandidateSet& candidates,
    const SelectionContext& ctx) const {
  SelectionContext greedy = ctx;
  greedy.commit_order = nullptr;
  auto incumbent = SelectEmaxByCover(candidates, gr.num_trajs(), greedy);
  IDREPAIR_RETURN_NOT_OK(incumbent.status());

  // Components: union-find over the members of every repair with ω > 0
  // (the others are never taken), numbered by their smallest repair.
  std::vector<TrajIndex> parent(gr.num_trajs());
  std::iota(parent.begin(), parent.end(), TrajIndex{0});
  auto find = [&](TrajIndex t) {
    while (parent[t] != t) t = parent[t] = parent[parent[t]];
    return t;
  };
  for (RepairIndex r = 0; r < candidates.size(); ++r) {
    if (candidates.effectiveness(r) <= 0.0) continue;
    Span<const TrajIndex> members = candidates.members(r);
    for (TrajIndex t : members) parent[find(t)] = find(members[0]);
  }
  constexpr uint32_t kNone = ~uint32_t{0};
  std::vector<uint32_t> component_of(gr.num_trajs(), kNone);  // by root
  std::vector<PackingSearch::Component> components;
  for (RepairIndex r = 0; r < candidates.size(); ++r) {
    if (candidates.effectiveness(r) <= 0.0) continue;
    uint32_t& c = component_of[find(candidates.members(r)[0])];
    if (c == kNone) {
      c = static_cast<uint32_t>(components.size());
      components.emplace_back();
    }
    components[c].reps.push_back(r);
  }
  for (TrajIndex t = 0; t < gr.num_trajs(); ++t) {
    const uint32_t c = component_of[find(t)];
    if (c != kNone) components[c].trajs.push_back(t);
  }
  for (RepairIndex r : *incumbent) {
    components[component_of[find(candidates.members(r)[0])]]
        .incumbent.push_back(r);
  }

  PackingSearch search(candidates, gr.cover(), ctx.deadline);
  std::vector<RepairIndex> out;
  for (PackingSearch::Component& c : components) {
    for (RepairIndex r : search.Solve(c)) out.push_back(r);
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

// Reference implementations of the Phase 2 greedy selectors, written for
// obviousness rather than speed. They share no code with
// src/repair/selectors.cc or src/repair/repair_graph.cc: every conflict is
// found by pairwise member intersection (no repair graph, no cover lists,
// no cover mask), and the degree heuristics rescan every remaining vertex
// per pick (no tournament tree). The selector tests demand byte-identical
// output from production against them.

#ifndef IDREPAIR_TESTS_SELECTION_ORACLES_H_
#define IDREPAIR_TESTS_SELECTION_ORACLES_H_

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "repair/candidates.h"
#include "repair/repair_graph.h"  // RepairIndex only

namespace idrepair {
namespace oracle {

/// One greedy run: the picks in commit order, the same picks ascending,
/// and Ω summed over the ascending picks.
struct Selection {
  std::vector<RepairIndex> commit_order;
  std::vector<RepairIndex> selected;
  double omega = 0.0;
};

inline Selection Finish(std::vector<RepairIndex> commit_order,
                        const CandidateSet& candidates) {
  Selection out;
  out.selected = commit_order;
  std::sort(out.selected.begin(), out.selected.end());
  for (RepairIndex r : out.selected) out.omega += candidates.effectiveness(r);
  out.commit_order = std::move(commit_order);
  return out;
}

/// Two repairs are incompatible exactly when their member sets (ascending)
/// share a trajectory (§3.3).
inline bool Conflict(const CandidateSet& candidates, RepairIndex a,
                     RepairIndex b) {
  Span<const TrajIndex> x = candidates.members(a);
  Span<const TrajIndex> y = candidates.members(b);
  size_t i = 0;
  size_t j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i] == y[j]) return true;
    if (x[i] < y[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Gr's adjacency of `v` straight from the definition: every other repair
/// that conflicts with it, ascending.
inline std::vector<RepairIndex> Neighbors(const CandidateSet& candidates,
                                          RepairIndex v) {
  std::vector<RepairIndex> out;
  for (RepairIndex u = 0; u < candidates.size(); ++u) {
    if (u != v && Conflict(candidates, u, v)) out.push_back(u);
  }
  return out;
}

/// Algorithm 3 (EMAX): visit repairs by descending ω, earlier index first
/// among equal ω (a stable sort), skip every repair with ω <= 0
/// (Example 4.2), and take a repair unless it conflicts with one already
/// taken.
inline Selection Emax(const CandidateSet& candidates) {
  std::vector<RepairIndex> order(candidates.size());
  std::iota(order.begin(), order.end(), RepairIndex{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](RepairIndex a, RepairIndex b) {
                     return candidates.effectiveness(a) >
                            candidates.effectiveness(b);
                   });
  std::vector<RepairIndex> taken;
  for (RepairIndex r : order) {
    if (candidates.effectiveness(r) <= 0.0) continue;
    bool free = true;
    for (RepairIndex t : taken) {
      if (Conflict(candidates, r, t)) {
        free = false;
        break;
      }
    }
    if (free) taken.push_back(r);
  }
  return Finish(std::move(taken), candidates);
}

/// DMIN (`minimize`) or DMAX over Gr (§6.5.1): rescan every remaining
/// vertex for the minimum (maximum) current degree, the smallest index on
/// ties, take it, and remove it with its remaining neighbors, decrementing
/// the degrees of their remaining neighbors. Gr's adjacency comes from
/// Neighbors (pairwise member intersection). O(|Vr|²).
inline Selection DegreeGreedy(const CandidateSet& candidates, bool minimize) {
  const size_t n = candidates.size();
  std::vector<std::vector<RepairIndex>> adjacency(n);
  for (RepairIndex v = 0; v < n; ++v) {
    adjacency[v] = Neighbors(candidates, v);
  }
  std::vector<bool> removed(n, false);
  std::vector<size_t> degree(n);
  for (RepairIndex v = 0; v < n; ++v) degree[v] = adjacency[v].size();
  auto remove_vertex = [&](RepairIndex v) {
    removed[v] = true;
    for (RepairIndex w : adjacency[v]) {
      if (!removed[w]) --degree[w];
    }
  };
  std::vector<RepairIndex> taken;
  for (;;) {
    bool found = false;
    RepairIndex best = 0;
    for (RepairIndex v = 0; v < n; ++v) {
      if (removed[v]) continue;
      if (!found || (minimize ? degree[v] < degree[best]
                              : degree[v] > degree[best])) {
        best = v;
        found = true;
      }
    }
    if (!found) break;
    taken.push_back(best);
    remove_vertex(best);
    for (RepairIndex w : adjacency[best]) {
      if (!removed[w]) remove_vertex(w);
    }
  }
  return Finish(std::move(taken), candidates);
}

/// Gr's edge count from the definition: conflicting unordered pairs.
inline size_t ConflictingPairs(const CandidateSet& candidates) {
  size_t pairs = 0;
  for (RepairIndex a = 0; a < candidates.size(); ++a) {
    for (RepairIndex b = a + 1; b < candidates.size(); ++b) {
      if (Conflict(candidates, a, b)) ++pairs;
    }
  }
  return pairs;
}

}  // namespace oracle
}  // namespace idrepair

#endif  // IDREPAIR_TESTS_SELECTION_ORACLES_H_

#ifndef IDREPAIR_GRAPH_REACHABILITY_H_
#define IDREPAIR_GRAPH_REACHABILITY_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/transition_graph.h"
#include "graph/types.h"

namespace idrepair {

/// Shortest hop counts for a transition graph, answering the cex
/// predicate's reachability queries in O(log ball) (the preprocessing step
/// of §4.1.1). BuildBounded runs one breadth-first search per source capped
/// at `max_hops` and stores only the vertices inside each hop ball, so it
/// costs O(|V|·ball) time and space — what makes 10k+-vertex road networks
/// feasible. Every production query is Reachable(u, v, θ−1), which a build
/// at max_hops = θ−1 answers exactly; a build at max_hops >= |V| holds every
/// shortest hop count (the tests' all-pairs view).
///
/// Semantics differ from the textbook matrix in one deliberate way: the
/// diagonal entry Hops(u, u) is the length of the *shortest directed cycle*
/// through u (kUnreachable when none exists), not 0. The cex predicate asks
/// "can a second visit to this location occur later on the same path?", and
/// in an acyclic graph the answer must be no — this is what makes
/// cex(T1, T3) false in Example 3.1 of the paper.
class ReachabilityMatrix {
 public:
  /// Hop count representing "not reachable by any non-empty walk".
  static constexpr uint32_t kUnreachable =
      std::numeric_limits<uint32_t>::max();

  /// Builds the hop-bounded sparse matrix: Hops(u, v) is exact whenever the
  /// true value is <= `max_hops` and kUnreachable otherwise, so
  /// Reachable(u, v, h) is exact for every h <= `max_hops`.
  static ReachabilityMatrix BuildBounded(const TransitionGraph& graph,
                                         uint32_t max_hops);

  /// Minimum number of edges on a walk from `from` to `to`; for from == to,
  /// the shortest cycle length. kUnreachable if no such walk exists within
  /// the build bound.
  uint32_t Hops(LocationId from, LocationId to) const {
    size_t lo = offsets_[from];
    size_t hi = offsets_[from + 1];
    auto first = targets_.begin() + static_cast<ptrdiff_t>(lo);
    auto last = targets_.begin() + static_cast<ptrdiff_t>(hi);
    auto it = std::lower_bound(first, last, to);
    if (it == last || *it != to) return kUnreachable;
    return ball_hops_[static_cast<size_t>(it - targets_.begin())];
  }

  /// True iff `to` is reachable from `from` by a non-empty walk of at most
  /// `max_hops` edges. `max_hops` must not exceed the build bound (the
  /// answer would be a false negative beyond it).
  bool Reachable(LocationId from, LocationId to, uint32_t max_hops) const {
    assert(max_hops <= bound_);
    uint32_t h = Hops(from, to);
    return h != kUnreachable && h <= max_hops;
  }

  size_t num_locations() const { return n_; }

  /// The hop cap of the build.
  uint32_t bound() const { return bound_; }

 private:
  ReachabilityMatrix(size_t n, uint32_t bound, std::vector<size_t> offsets,
                     std::vector<LocationId> targets,
                     std::vector<uint32_t> ball_hops)
      : n_(n),
        bound_(bound),
        offsets_(std::move(offsets)),
        targets_(std::move(targets)),
        ball_hops_(std::move(ball_hops)) {}

  size_t n_ = 0;
  uint32_t bound_ = 0;
  // CSR over hop balls — targets_[offsets_[u]..offsets_[u+1]) are the
  // vertices reachable from u within bound_ hops (sorted by id), ball_hops_
  // the matching hop counts.
  std::vector<size_t> offsets_;
  std::vector<LocationId> targets_;
  std::vector<uint32_t> ball_hops_;
};

/// Hops from every location to its nearest exit (0 at an exit), by one
/// multi-source reverse breadth-first search from the exit set;
/// ReachabilityMatrix::kUnreachable where no exit can be reached. O(|V|+|E|).
/// Answers "can this prefix still end at an exit?" for the pck predicate
/// (§5.2) and guides path enumeration and trip sampling away from dead ends.
std::vector<uint32_t> HopsToExit(const TransitionGraph& graph);

}  // namespace idrepair

#endif  // IDREPAIR_GRAPH_REACHABILITY_H_

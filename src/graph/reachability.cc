#include "graph/reachability.h"

#include <algorithm>

namespace idrepair {

ReachabilityMatrix ReachabilityMatrix::BuildBounded(const TransitionGraph& graph,
                                                    uint32_t max_hops) {
  size_t n = graph.num_locations();
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<LocationId> targets;
  std::vector<uint32_t> ball_hops;
  // Stamped visitation: one mark/dist array reused across sources so each
  // BFS costs O(ball), not O(n).
  std::vector<uint32_t> mark(n, 0);
  std::vector<uint32_t> dist(n, 0);
  std::vector<LocationId> found;
  uint32_t stamp = 0;
  for (LocationId u = 0; u < n; ++u) {
    ++stamp;
    found.clear();
    // The source is deliberately NOT pre-marked: if some walk returns to it
    // within the bound, it enters `found` with its shortest cycle length —
    // giving the diagonal its shortest-cycle semantics.
    if (max_hops >= 1) {
      for (LocationId v : graph.OutNeighbors(u)) {
        if (mark[v] != stamp) {
          mark[v] = stamp;
          dist[v] = 1;
          found.push_back(v);
        }
      }
      for (size_t head = 0; head < found.size(); ++head) {
        LocationId v = found[head];
        uint32_t d = dist[v];
        if (d >= max_hops) break;  // BFS order: all later nodes are >= d
        for (LocationId w : graph.OutNeighbors(v)) {
          if (mark[w] != stamp) {
            mark[w] = stamp;
            dist[w] = d + 1;
            found.push_back(w);
          }
        }
      }
    }
    std::sort(found.begin(), found.end());
    for (LocationId v : found) {
      targets.push_back(v);
      ball_hops.push_back(dist[v]);
    }
    offsets[u + 1] = targets.size();
  }
  return ReachabilityMatrix(n, max_hops, std::move(offsets),
                            std::move(targets), std::move(ball_hops));
}

std::vector<uint32_t> HopsToExit(const TransitionGraph& graph) {
  std::vector<uint32_t> hops(graph.num_locations(),
                             ReachabilityMatrix::kUnreachable);
  std::vector<LocationId> queue;
  for (LocationId e : graph.exits()) {
    hops[e] = 0;
    queue.push_back(e);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    LocationId v = queue[head];
    for (LocationId u : graph.InNeighbors(v)) {
      if (hops[u] == ReachabilityMatrix::kUnreachable) {
        hops[u] = hops[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return hops;
}

}  // namespace idrepair

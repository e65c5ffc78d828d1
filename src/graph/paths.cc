#include "graph/paths.h"

#include "graph/reachability.h"

namespace idrepair {

namespace {

// Iterative DFS over partial paths; appends completed valid paths to `out`.
// `hops_to_exit` (HopsToExit(graph)) prunes branches no exit is reachable
// from.
Status EnumerateFrom(const TransitionGraph& graph,
                     const std::vector<uint32_t>& hops_to_exit,
                     LocationId start, size_t max_len, size_t max_paths,
                     std::vector<std::vector<LocationId>>* out) {
  std::vector<LocationId> path = {start};
  // Stack of (depth, next-neighbor-index) frames.
  std::vector<size_t> next_index = {0};
  while (!next_index.empty()) {
    size_t depth = next_index.size() - 1;
    LocationId cur = path[depth];
    if (next_index[depth] == 0 && graph.IsExit(cur)) {
      out->push_back(path);
      if (out->size() > max_paths) {
        return Status::OutOfRange("valid path space exceeds max_paths");
      }
    }
    const auto& nbrs = graph.OutNeighbors(cur);
    if (path.size() < max_len && next_index[depth] < nbrs.size()) {
      LocationId nxt = nbrs[next_index[depth]++];
      if (hops_to_exit[nxt] == ReachabilityMatrix::kUnreachable) {
        continue;  // dead branch
      }
      path.push_back(nxt);
      next_index.push_back(0);
    } else {
      path.pop_back();
      next_index.pop_back();
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::vector<LocationId>>> EnumerateValidPaths(
    const TransitionGraph& graph, size_t max_len, size_t max_paths) {
  IDREPAIR_RETURN_NOT_OK(graph.Validate());
  if (max_len == 0) {
    return Status::InvalidArgument("max_len must be positive");
  }
  std::vector<uint32_t> hops_to_exit = HopsToExit(graph);
  std::vector<std::vector<LocationId>> out;
  for (LocationId entrance : graph.entrances()) {
    IDREPAIR_RETURN_NOT_OK(EnumerateFrom(graph, hops_to_exit, entrance,
                                         max_len, max_paths, &out));
  }
  return out;
}

Result<ValidPathSampler> ValidPathSampler::Create(const TransitionGraph& graph,
                                                  size_t max_len,
                                                  size_t max_paths) {
  auto paths = EnumerateValidPaths(graph, max_len, max_paths);
  if (!paths.ok()) return paths.status();
  if (paths->empty()) {
    return Status::NotFound("graph has no valid path within max_len");
  }
  return ValidPathSampler(std::move(*paths));
}

}  // namespace idrepair

#include "baselines/id_similarity_repairer.h"

#include <numeric>
#include <vector>

#include "repair/candidates.h"
#include "repair/repairer.h"
#include "sim/edit_distance.h"
#include "sim/similarity.h"

namespace idrepair {

namespace {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Result<RepairResult> IdSimilarityRepairer::Repair(
    const TrajectorySet& set) const {
  RunRecorder recorder("baseline_idsim", set, options_.exec);
  recorder.Validity(*graph_);  // reported only: the baseline ignores Gt
  RepairResult result;
  size_t n = set.size();
  UnionFind uf(n);
  for (TrajIndex i = 0; i < n; ++i) {
    const std::string& a = set.at(i).id();
    for (TrajIndex j = i + 1; j < n; ++j) {
      const std::string& b = set.at(j).id();
      if (EditDistanceBounded(a, b, max_edit_distance_) <=
          max_edit_distance_) {
        uf.Union(i, j);
      }
    }
  }
  // Collect clusters and rewrite every multi-member cluster to its Eq. 5
  // target.
  std::vector<std::vector<TrajIndex>> clusters(n);
  for (TrajIndex i = 0; i < n; ++i) {
    clusters[uf.Find(i)].push_back(i);
  }
  NormalizedEditSimilarity similarity;
  for (const auto& cluster : clusters) {
    if (cluster.size() < 2) continue;
    TrajIndex target = AssignTargetId(set, cluster, similarity);
    const std::string& target_id = set.at(target).id();
    for (TrajIndex m : cluster) {
      if (set.at(m).id() != target_id) result.rewrites[m] = target_id;
    }
  }
  result.repaired = ApplyRewrites(set, result.rewrites);
  recorder.Finish(&result);
  return result;
}

}  // namespace idrepair

#include "gen/synthetic.h"

#include <unordered_set>

#include "gen/id_generator.h"
#include "graph/paths.h"

namespace idrepair {

Status SyntheticConfig::Validate() const {
  if (record_error_rate < 0.0 || record_error_rate > 1.0) {
    return Status::InvalidArgument("record_error_rate must be in [0, 1]");
  }
  if (record_missing_rate < 0.0 || record_missing_rate > 1.0) {
    return Status::InvalidArgument("record_missing_rate must be in [0, 1]");
  }
  if (max_path_len == 0) {
    return Status::InvalidArgument("max_path_len must be positive");
  }
  if (window_seconds < 0) {
    return Status::InvalidArgument("window_seconds must be >= 0");
  }
  for (double w : path_weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("path_weights must be non-negative");
    }
  }
  if (error_distances.probs_by_distance.empty()) {
    return Status::InvalidArgument("error_distances must not be empty");
  }
  double prob_sum = 0.0;
  for (double p : error_distances.probs_by_distance) {
    if (p < 0.0) {
      return Status::InvalidArgument(
          "error_distances probabilities must be non-negative");
    }
    prob_sum += p;
  }
  if (prob_sum <= 0.0) {
    return Status::InvalidArgument(
        "error_distances needs at least one positive probability");
  }
  if (travel_sigma < 0.0) {
    return Status::InvalidArgument("travel_sigma must be >= 0");
  }
  if (travel_median_lo < 1 || travel_median_hi < travel_median_lo) {
    return Status::InvalidArgument(
        "travel medians need 1 <= median_lo <= median_hi");
  }
  return Status::OK();
}

Result<Dataset> GenerateCleanDataset(const TransitionGraph& graph,
                                     const SyntheticConfig& config) {
  IDREPAIR_RETURN_NOT_OK(config.Validate());
  IDREPAIR_RETURN_NOT_OK(graph.Validate());
  auto sampler = ValidPathSampler::Create(graph, config.max_path_len);
  if (!sampler.ok()) return sampler.status();
  if (!config.path_weights.empty() &&
      config.path_weights.size() != sampler->num_paths()) {
    return Status::InvalidArgument(
        "path_weights size does not match the number of valid paths (" +
        std::to_string(sampler->num_paths()) + ")");
  }

  Rng rng(config.seed);
  UniqueIdGenerator ids;
  TravelTimeModel travel(config.travel_sigma, config.travel_median_lo,
                         config.travel_median_hi);

  Dataset dataset;
  dataset.graph = graph;
  dataset.records.reserve(config.num_trajectories * 3);
  for (size_t e = 0; e < config.num_trajectories; ++e) {
    const std::vector<LocationId>& path =
        config.path_weights.empty()
            ? sampler->Sample(rng)
            : sampler->paths()[rng.WeightedIndex(config.path_weights)];
    std::string id = ids.Next(rng);
    Timestamp ts = rng.UniformInt(0, config.window_seconds);
    for (size_t i = 0; i < path.size(); ++i) {
      if (i > 0) ts += travel.SampleSeconds(path[i - 1], path[i], rng);
      dataset.records.push_back(GroundTruthRecord{id, id, path[i], ts});
    }
  }
  dataset.SortChronological();
  return dataset;
}

void InjectIdErrors(Dataset& dataset, double rate, const IdErrorModel& model,
                    Rng& rng) {
  // A corrupted ID must not collide with any entity's true ID (sparsity of
  // IDs, §2.3): collect the true-ID universe once.
  std::unordered_set<std::string> true_ids;
  for (const auto& r : dataset.records) true_ids.insert(r.true_id);
  auto is_taken = [&true_ids](const std::string& candidate) {
    return true_ids.count(candidate) > 0;
  };
  for (auto& r : dataset.records) {
    if (!rng.Bernoulli(rate)) continue;
    r.observed_id = model.Mutate(r.true_id, rng, is_taken);
  }
}

void InjectMissingRecords(Dataset& dataset, double rate, Rng& rng) {
  std::vector<GroundTruthRecord> kept;
  kept.reserve(dataset.records.size());
  for (auto& r : dataset.records) {
    if (!rng.Bernoulli(rate)) kept.push_back(std::move(r));
  }
  dataset.records = std::move(kept);
}

Result<Dataset> GenerateSyntheticDataset(const TransitionGraph& graph,
                                         const SyntheticConfig& config) {
  auto dataset = GenerateCleanDataset(graph, config);
  if (!dataset.ok()) return dataset.status();
  // Independent child RNGs per stage: changing the error rate must not
  // perturb which records go missing, and vice versa.
  Rng stage_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  Rng error_rng = stage_rng.Fork();
  Rng missing_rng = stage_rng.Fork();
  IdErrorModel model(config.error_distances);
  InjectIdErrors(*dataset, config.record_error_rate, model, error_rng);
  InjectMissingRecords(*dataset, config.record_missing_rate, missing_rng);
  return dataset;
}

}  // namespace idrepair

#include "gen/dataset.h"

#include <algorithm>
#include <tuple>
#include <unordered_set>

namespace idrepair {

void Dataset::SortChronological() {
  std::sort(records.begin(), records.end(),
            [](const GroundTruthRecord& a, const GroundTruthRecord& b) {
              return std::tie(a.ts, a.loc, a.true_id) <
                     std::tie(b.ts, b.loc, b.true_id);
            });
}

std::vector<TrackingRecord> Dataset::ObservedRecords() const {
  std::vector<TrackingRecord> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    out.push_back(TrackingRecord{r.observed_id, r.loc, r.ts});
  }
  return out;
}

std::vector<TrackingRecord> Dataset::TrueRecords() const {
  std::vector<TrackingRecord> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    out.push_back(TrackingRecord{r.true_id, r.loc, r.ts});
  }
  return out;
}

TrajectorySet Dataset::BuildObservedTrajectories() const {
  return TrajectorySet::FromRecords(ObservedRecords());
}

TrajectorySet Dataset::BuildTrueTrajectories() const {
  return TrajectorySet::FromRecords(TrueRecords());
}

size_t Dataset::NumEntities() const {
  std::unordered_set<std::string> ids;
  for (const auto& r : records) ids.insert(r.true_id);
  return ids.size();
}

Result<Dataset> MakeLabeledDataset(const TransitionGraph& graph,
                                   std::vector<TrackingRecord> observed,
                                   std::vector<TrackingRecord> truth) {
  if (observed.size() != truth.size()) {
    return Status::InvalidArgument(
        "observed and truth files hold different record counts (" +
        std::to_string(observed.size()) + " vs " +
        std::to_string(truth.size()) + ")");
  }
  auto by_event = [](const TrackingRecord& a, const TrackingRecord& b) {
    return std::tie(a.ts, a.loc, a.id) < std::tie(b.ts, b.loc, b.id);
  };
  std::sort(observed.begin(), observed.end(), by_event);
  std::sort(truth.begin(), truth.end(), by_event);
  Dataset dataset;
  dataset.graph = graph;
  dataset.records.reserve(observed.size());
  for (size_t i = 0; i < observed.size(); ++i) {
    if (observed[i].ts != truth[i].ts || observed[i].loc != truth[i].loc) {
      return Status::InvalidArgument(
          "record #" + std::to_string(i) +
          " mismatch: observed and truth files must describe the same "
          "(timestamp, location) capture events");
    }
    dataset.records.push_back(GroundTruthRecord{
        std::move(truth[i].id), std::move(observed[i].id), observed[i].loc,
        observed[i].ts});
  }
  return dataset;
}

double Dataset::RecordErrorRate() const {
  if (records.empty()) return 0.0;
  size_t bad = 0;
  for (const auto& r : records) {
    if (r.corrupted()) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(records.size());
}

}  // namespace idrepair

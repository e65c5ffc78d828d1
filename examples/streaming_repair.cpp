// Streaming repair: fixing IDs as tracking records arrive.
//
// The paper's §8 names online repair as future work; this example drives
// the library's StreamingRepairer extension. Records from a day of traffic
// are replayed in timestamp order; the stream is polled periodically, and
// trajectories are emitted as soon as the η bound proves no future record
// can still join them. Results are compared against a batch run of the
// same data.

#include <iostream>

#include "common/string_util.h"
#include "eval/metrics.h"
#include "gen/real_like.h"
#include "repair/repairer.h"
#include "stream/streaming_repairer.h"

using namespace idrepair;

int main() {
  auto dataset = MakeScaledRealLikeDataset(/*num_trajectories=*/1500,
                                           /*record_error_rate=*/0.2,
                                           /*seed=*/7);
  if (!dataset.ok()) {
    std::cerr << "generation failed: " << dataset.status() << "\n";
    return 1;
  }
  auto records = dataset->ObservedRecords();
  std::sort(records.begin(), records.end(), RecordChronoLess);
  std::cout << "Replaying " << records.size() << " records spanning "
            << (records.back().ts - records.front().ts) << " s\n\n";

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;

  StreamOptions stream_options;
  stream_options.flush_horizon_multiplier = 3.0;
  StreamingRepairer stream(dataset->graph, options, stream_options);
  std::vector<Trajectory> emitted;
  size_t polls = 0;
  size_t max_pending = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (auto s = stream.Append(records[i]); !s.ok()) {
      std::cerr << "append failed: " << s << "\n";
      return 1;
    }
    max_pending = std::max(max_pending, stream.pending_records());
    if ((i + 1) % 200 == 0) {  // poll every 200 records
      ++polls;
      auto batch = stream.Poll();
      emitted.insert(emitted.end(), batch.begin(), batch.end());
    }
  }
  auto rest = stream.Finish();
  emitted.insert(emitted.end(), rest.begin(), rest.end());

  std::cout << "Polls: " << polls << ", emitted trajectories: "
            << emitted.size() << ", peak buffered records: " << max_pending
            << "\n";

  // Batch reference on the same data.
  TrajectorySet set = dataset->BuildObservedTrajectories();
  IdRepairer repairer(dataset->graph, options);
  auto batch = repairer.Repair(set);
  if (!batch.ok()) {
    std::cerr << "batch repair failed: " << batch.status() << "\n";
    return 1;
  }

  size_t stream_valid = 0;
  for (const auto& t : emitted) {
    if (t.IsValid(dataset->graph)) ++stream_valid;
  }
  size_t batch_valid = batch->repaired.size() -
                       batch->repaired.InvalidTrajectories(dataset->graph)
                           .size();
  std::cout << "Valid trajectories  — stream: " << stream_valid << " / "
            << emitted.size() << ", batch: " << batch_valid << " / "
            << batch->repaired.size() << "\n";
  std::cout << "Batch f-measure for reference: ";
  auto truth = ComputeFragmentTruth(*dataset, set);
  auto metrics = EvaluateRewrites(truth, set, batch->rewrites);
  std::cout << ToFixed(metrics.f_measure, 3) << "\n";
  return 0;
}

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "gen/real_like.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "repair/repairer.h"
#include "stream/streaming_repairer.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::MakeTable1Records;
using testutil::RunningExampleOptions;

std::vector<TrackingRecord> SortedRecords(const Dataset& ds) {
  auto records = ds.ObservedRecords();
  std::sort(records.begin(), records.end(), RecordChronoLess);
  return records;
}

std::map<std::string, std::vector<LocationId>> AsMap(
    const std::vector<Trajectory>& trajs) {
  std::map<std::string, std::vector<LocationId>> out;
  for (const auto& t : trajs) {
    auto& seq = out[t.id()];
    for (const auto& p : t.points()) seq.push_back(p.loc);
  }
  return out;
}

TEST(StreamingRepairerTest, RejectsOutOfOrderRecords) {
  TransitionGraph graph = MakePaperExampleGraph();
  StreamingRepairer stream(graph, RunningExampleOptions());
  ASSERT_TRUE(stream.Append({"a", 0, 100}).ok());
  Status s = stream.Append({"b", 1, 50});
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.pending_records(), 1u);
}

TEST(StreamingRepairerTest, RunningExampleThroughFinish) {
  TransitionGraph graph = MakePaperExampleGraph();
  StreamingRepairer stream(graph, RunningExampleOptions());
  auto records = MakeTable1Records();
  std::sort(records.begin(), records.end(), RecordChronoLess);
  for (const auto& r : records) ASSERT_TRUE(stream.Append(r).ok());
  auto emitted = stream.Finish();
  auto by_id = AsMap(emitted);
  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_EQ(by_id.at("GL83248"), (std::vector<LocationId>{2, 3, 4}));
  EXPECT_EQ(by_id.at("GL21348"), (std::vector<LocationId>{0, 1, 3, 4}));
  EXPECT_EQ(stream.pending_records(), 0u);
}

TEST(StreamingRepairerTest, PollWithholdsOpenChains) {
  TransitionGraph graph = MakePaperExampleGraph();
  StreamingRepairer stream(graph, RunningExampleOptions());
  ASSERT_TRUE(stream.Append({"a", 0, 0}).ok());
  ASSERT_TRUE(stream.Append({"a", 1, 100}).ok());
  // Watermark is only 100: the fragment could still grow.
  EXPECT_TRUE(stream.Poll().empty());
  EXPECT_EQ(stream.pending_records(), 2u);
}

TEST(StreamingRepairerTest, PollFlushesAfterQuietGap) {
  TransitionGraph graph = MakePaperExampleGraph();
  RepairOptions options = RunningExampleOptions();  // η = 1200
  StreamingRepairer stream(graph, options);
  // A complete valid trajectory, then a long gap before new traffic.
  ASSERT_TRUE(stream.Append({"veh", 2, 0}).ok());
  ASSERT_TRUE(stream.Append({"veh", 3, 100}).ok());
  ASSERT_TRUE(stream.Append({"veh", 4, 200}).ok());
  ASSERT_TRUE(stream.Append({"next", 0, 10000}).ok());
  auto emitted = stream.Poll();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].id(), "veh");
  EXPECT_EQ(stream.pending_records(), 1u);  // "next" still open
}

TEST(StreamingRepairerTest, ChainedFragmentsFlushTogether) {
  TransitionGraph graph = MakePaperExampleGraph();
  StreamingRepairer stream(graph, RunningExampleOptions());
  // The running example arrives, then silence long past η.
  auto records = MakeTable1Records();
  std::sort(records.begin(), records.end(), RecordChronoLess);
  for (const auto& r : records) ASSERT_TRUE(stream.Append(r).ok());
  ASSERT_TRUE(
      stream.Append({"later", 0, records.back().ts + 100000}).ok());
  auto emitted = stream.Poll();
  // All three fragments repaired together, exactly like the batch.
  auto by_id = AsMap(emitted);
  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_EQ(by_id.at("GL83248"), (std::vector<LocationId>{2, 3, 4}));
}

TEST(StreamingRepairerTest, MatchesBatchOnRealLikeDataset) {
  auto ds = MakeScaledRealLikeDataset(400, 0.2, /*seed=*/9);
  ASSERT_TRUE(ds.ok());
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;

  // Batch reference.
  TrajectorySet set = ds->BuildObservedTrajectories();
  IdRepairer repairer(ds->graph, options);
  auto batch = repairer.Repair(set);
  ASSERT_TRUE(batch.ok());

  // Stream with a generous horizon.
  StreamOptions stream_options;
  stream_options.flush_horizon_multiplier = 4.0;
  StreamingRepairer stream(ds->graph, options, stream_options);
  std::vector<Trajectory> emitted;
  size_t count = 0;
  for (const auto& r : SortedRecords(*ds)) {
    ASSERT_TRUE(stream.Append(r).ok());
    if (++count % 50 == 0) {
      auto polled = stream.Poll();
      emitted.insert(emitted.end(), polled.begin(), polled.end());
    }
  }
  auto rest = stream.Finish();
  emitted.insert(emitted.end(), rest.begin(), rest.end());

  // Record conservation.
  size_t total = 0;
  for (const auto& t : emitted) total += t.size();
  EXPECT_EQ(total, ds->records.size());

  // Agreement with batch: compare the full multiset of (id, loc-seq).
  auto batch_map = AsMap(batch->repaired.trajectories());
  auto stream_map = AsMap(emitted);
  size_t agree = 0;
  for (const auto& [id, seq] : stream_map) {
    auto it = batch_map.find(id);
    if (it != batch_map.end() && it->second == seq) ++agree;
  }
  double agreement =
      static_cast<double>(agree) / static_cast<double>(batch_map.size());
  EXPECT_GT(agreement, 0.95) << "stream diverges from batch too much";
}

// Polling twice with nothing appended in between re-runs the same windows
// (a forced flush that deferred every safe fragment sees the identical
// window again); every record still leaves the stream exactly once, and
// at every point the emitted and pending records add up to the appends.
TEST(StreamingRepairerTest, RepeatedPollsEmitEveryRecordOnce) {
  auto ds = MakeScaledRealLikeDataset(400, 0.2, /*seed=*/9);
  ASSERT_TRUE(ds.ok());
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  StreamingRepairer stream(ds->graph, options);
  stream.set_capture_windows(true);

  std::vector<Trajectory> emitted;
  size_t emitted_records = 0;
  size_t reruns = 0;
  auto take = [&](std::vector<Trajectory> got) {
    for (const auto& t : got) emitted_records += t.size();
    emitted.insert(emitted.end(), got.begin(), got.end());
  };
  const auto records = SortedRecords(*ds);
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(stream.Append(records[i]).ok());
    if ((i + 1) % 25 != 0) continue;
    for (int repeat = 0; repeat < 2; ++repeat) {
      const size_t runs = stream.generation_runs();
      take(stream.Poll());
      ASSERT_EQ(emitted_records + stream.pending_records(), i + 1)
          << "record " << i << " poll " << repeat;
      if (repeat == 1) reruns += stream.generation_runs() - runs;
    }
  }
  EXPECT_GT(reruns, 0u);  // some second poll did re-run a window
  take(stream.Finish());
  EXPECT_EQ(stream.pending_records(), 0u);

  std::multiset<std::pair<LocationId, Timestamp>> in;
  for (const auto& r : records) in.insert({r.loc, r.ts});
  std::multiset<std::pair<LocationId, Timestamp>> out;
  for (const auto& t : emitted) {
    for (const auto& p : t.points()) out.insert({p.loc, p.ts});
  }
  EXPECT_EQ(out, in);
  ASSERT_FALSE(stream.captured_windows().empty());
  for (const auto& window : stream.captured_windows()) {
    EXPECT_FALSE(window.from_cache);
    EXPECT_FALSE(window.degraded);
  }
}

// Each poll's output is the concatenation of its windows' flushes, in
// capture order, and every emitted trajectory is checked against the
// `repaired` list of the window that produced it — IdRepairer's output over
// that window, not the stream's own flush. A settled window emits exactly
// its repaired list, in order; a forced window emits a run of entries of
// its repaired list (the decisions wholly behind the cut), in (start, id)
// order. The stream is dense and the horizon one η, so chains never
// settle on their own and most windows are forced; Finish() drains the
// rest as settled windows. The output is the same at 1, 2 and 8 threads.
TEST(StreamingRepairerTest, EveryEmissionComesFromItsPollsCapturedWindows) {
  auto ds = MakeScaledRealLikeDataset(400, 0.2, /*seed=*/9);
  ASSERT_TRUE(ds.ok());
  const auto records = SortedRecords(*ds);
  auto start_id_less = [](const Trajectory& a, const Trajectory& b) {
    return std::forward_as_tuple(a.start_time(), a.id()) <
           std::forward_as_tuple(b.start_time(), b.id());
  };
  std::vector<Trajectory> first_output;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.exec.num_threads = threads;
    StreamOptions stream_options;
    stream_options.flush_horizon_multiplier = 1.0;
    StreamingRepairer stream(ds->graph, options, stream_options);
    stream.set_capture_windows(true);

    std::vector<Trajectory> output;
    size_t settled_emitting = 0;
    size_t forced_emitting = 0;
    auto check = [&](const std::vector<Trajectory>& got, size_t first_window) {
      const auto& windows = stream.captured_windows();
      size_t next = 0;
      for (size_t w = first_window; w < windows.size(); ++w) {
        const StreamingRepairer::WindowRepair& window = windows[w];
        ASSERT_FALSE(window.degraded);
        const std::vector<Trajectory>& repaired = window.repaired;
        const size_t begin = next;
        if (!window.forced) {
          ASSERT_LE(next + repaired.size(), got.size()) << "window " << w;
          for (const Trajectory& t : repaired) {
            EXPECT_EQ(got[next++], t) << "settled window " << w;
          }
        } else {
          // Windows hold disjoint records, so a trajectory of this window's
          // repaired list cannot belong to the next window's run.
          while (next < got.size() &&
                 std::find(repaired.begin(), repaired.end(), got[next]) !=
                     repaired.end()) {
            ++next;
          }
          EXPECT_TRUE(std::is_sorted(got.begin() + begin, got.begin() + next,
                                     start_id_less))
              << "forced window " << w;
        }
        if (next > begin) ++(window.forced ? forced_emitting : settled_emitting);
      }
      EXPECT_EQ(next, got.size()) << "a trajectory no captured window made";
    };
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(stream.Append(records[i]).ok());
      if ((i + 1) % 25 != 0) continue;
      const size_t first_window = stream.captured_windows().size();
      std::vector<Trajectory> got = stream.Poll();
      check(got, first_window);
      output.insert(output.end(), got.begin(), got.end());
    }
    const size_t first_window = stream.captured_windows().size();
    std::vector<Trajectory> tail = stream.Finish();
    check(tail, first_window);
    output.insert(output.end(), tail.begin(), tail.end());

    EXPECT_GT(forced_emitting, 0u);
    EXPECT_GT(settled_emitting, 0u);
    size_t points = 0;
    for (const Trajectory& t : output) points += t.size();
    EXPECT_EQ(points, records.size());
    if (first_output.empty()) {
      first_output = output;
    } else {
      EXPECT_EQ(output, first_output);
    }
  }
}

// AAA's one record collides with GL83248's first (loc, ts). The adapter
// reads each input's rewrite from the IDs its records left the stream
// under, so the collision cannot hand AAA GL83248's rename.
TEST(StreamingRepairerTest, RewritesMatchTheBatchEngineOnCollidingPoints) {
  TransitionGraph graph = MakePaperExampleGraph();
  std::vector<TrackingRecord> records = MakeTable1Records();
  records.push_back({"AAA", /*D=*/3, testutil::HMS(8, 19, 40)});
  TrajectorySet set = TrajectorySet::FromRecords(records);
  ASSERT_EQ(set.at(2).id(), "AAA");
  RepairOptions options = RunningExampleOptions();
  auto batch = IdRepairer(graph, options).Repair(set);
  auto stream = StreamingRepairer(graph, options).Repair(set);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE(stream.ok()) << stream.status();
  const std::unordered_map<TrajIndex, std::string> expected = {
      {1, "GL83248"}};
  EXPECT_EQ(batch->rewrites, expected);
  EXPECT_EQ(stream->rewrites, expected);
  EXPECT_EQ(stream->repaired.trajectories(), batch->repaired.trajectories());
}

TEST(StreamingRepairerTest, EmittedCountAccumulates) {
  TransitionGraph graph = MakePaperExampleGraph();
  StreamingRepairer stream(graph, RunningExampleOptions());
  ASSERT_TRUE(stream.Append({"x", 2, 0}).ok());
  EXPECT_EQ(stream.emitted_trajectories(), 0u);
  stream.Finish();
  EXPECT_EQ(stream.emitted_trajectories(), 1u);
}

TEST(StreamingRepairerTest, ObsRecordsPollsAndLatency) {
  obs::MetricsRegistry::Global().Reset();
  obs::SetEnabled(true);
  TransitionGraph graph = MakePaperExampleGraph();
  StreamingRepairer stream(graph, RunningExampleOptions());
  ASSERT_TRUE(stream.Append({"veh", 2, 0}).ok());
  ASSERT_TRUE(stream.Append({"veh", 3, 100}).ok());
  ASSERT_TRUE(stream.Append({"next", 0, 100000}).ok());
  auto emitted = stream.Poll();
  obs::SetEnabled(false);

  uint64_t appends = 0;
  uint64_t polls = 0;
  uint64_t emitted_total = 0;
  uint64_t poll_latencies = 0;
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == "idrepair_stream_appends_total") {
      appends = m.counter_value;
    } else if (m.name == "idrepair_stream_polls_total") {
      polls = m.counter_value;
    } else if (m.name == "idrepair_stream_emitted_trajectories_total") {
      emitted_total = m.counter_value;
    } else if (m.name == "idrepair_stream_poll_seconds") {
      poll_latencies = m.total_count;
    }
  }
  EXPECT_EQ(appends, 3u);
  EXPECT_EQ(polls, 1u);
  EXPECT_EQ(poll_latencies, 1u);  // every poll observes its latency
  EXPECT_EQ(emitted_total, emitted.size());
}

// A stream that polls but never finishes must not keep a slot for every
// fragment and component it ever opened: steady traffic over ~150 η,
// polled every η, with a quiet gap every 50 vehicles so both settled and
// horizon-forced flushes retire state. The held slots stay bounded by the
// live fragments (each holds a pending record; each live component holds
// a live fragment).
TEST(StreamingRepairerTest, PollOnlyStreamReusesRetiredSlots) {
  TransitionGraph graph = MakePaperExampleGraph();
  RepairOptions options = RunningExampleOptions();  // η = 1200
  StreamingRepairer stream(graph, options);
  std::vector<TrackingRecord> records;
  constexpr size_t kVehicles = 600;
  Timestamp start = 0;
  for (size_t v = 0; v < kVehicles; ++v) {
    start += (v % 50 == 49) ? 3 * options.eta : 300;
    std::string id = "veh" + std::to_string(v);
    records.push_back({id, 2, start});
    records.push_back({id, 3, start + 100});
    records.push_back({id, 4, start + 200});
  }
  std::sort(records.begin(), records.end(), RecordChronoLess);

  size_t peak_pending = 0;
  size_t emitted = 0;
  Timestamp last_poll = records.front().ts;
  for (const TrackingRecord& r : records) {
    ASSERT_TRUE(stream.Append(r).ok());
    peak_pending = std::max(peak_pending, stream.pending_records());
    if (stream.watermark() - last_poll > options.eta) {
      emitted += stream.Poll().size();
      last_poll = stream.watermark();
      ASSERT_LE(stream.state_slots(), 2 * peak_pending)
          << "after poll " << stream.poll_count();
    }
  }
  ASSERT_GT(stream.poll_count(), 100u);
  // Most vehicles have left, so a slot per fragment ever opened would
  // exceed the bound many times over.
  EXPECT_GT(emitted, kVehicles - peak_pending);
  EXPECT_GT(kVehicles, 4 * peak_pending);
}

TEST(StreamingRepairerTest, FinishOnEmptyStream) {
  TransitionGraph graph = MakePaperExampleGraph();
  StreamingRepairer stream(graph, RunningExampleOptions());
  EXPECT_TRUE(stream.Finish().empty());
  EXPECT_TRUE(stream.Poll().empty());
}

}  // namespace
}  // namespace idrepair

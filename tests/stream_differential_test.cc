// Batch-equivalence differential tier for the incremental streaming engine.
//
// The StreamingRepairer maintains its window state record by record
// (fragments as point lists, chain components with dirty flags) and
// repairs each window it flushes through IdRepairer::Repair, recomputing
// every window; the contract making that safe is that every repair it runs
// over a window of records is *byte-identical* to what a fresh batch
// IdRepairer produces over exactly those records — the right windows and
// the right records in each. This suite pins that contract window by
// window — the engine captures each (records, repaired) pair it processes
// and we replay every window through a fresh batch pipeline — across graph
// shapes, eviction patterns, and thread counts, and locks the
// amortized-cost claim (settled components are never regenerated) with
// the generation-run counter.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"
#include "stream/streaming_repairer.h"
#include "test_util.h"
#include "traj/trajectory_set.h"

namespace idrepair {
namespace {

using testutil::HMS;

struct StreamScenario {
  std::string name;
  TransitionGraph graph;
  std::vector<TrackingRecord> records;  // (ts, id, loc) ascending
  RepairOptions options;
};

std::vector<StreamScenario> MakeStreamScenarios() {
  struct Shape {
    const char* name;
    TransitionGraph graph;
    size_t theta;
    int64_t travel_lo, travel_hi;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"paper", MakePaperExampleGraph(), 5, 60, 180});
  shapes.push_back({"chain8", MakeChainGraph(8), 8, 30, 60});
  shapes.push_back({"grid", MakeGridNetwork(3, 4), 6, 30, 90});

  std::vector<StreamScenario> scenarios;
  uint64_t seed = 7000;
  for (auto& shape : shapes) {
    SyntheticConfig config;
    config.num_trajectories = 80;
    config.record_error_rate = 0.2;
    config.max_path_len = shape.theta;
    config.window_seconds = 3600;
    config.travel_median_lo = shape.travel_lo;
    config.travel_median_hi = shape.travel_hi;
    config.seed = ++seed;
    auto ds = GenerateSyntheticDataset(shape.graph, config);
    if (!ds.ok()) {
      ADD_FAILURE() << shape.name << ": " << ds.status();
      continue;
    }
    StreamScenario s;
    s.name = shape.name;
    s.graph = shape.graph;
    s.options.theta = shape.theta;
    s.options.eta = 600;
    TrajectorySet set = ds->BuildObservedTrajectories();
    for (TrajIndex i = 0; i < set.size(); ++i) {
      for (const auto& p : set.at(i).points()) {
        s.records.push_back(TrackingRecord{set.at(i).id(), p.loc, p.ts});
      }
    }
    std::sort(s.records.begin(), s.records.end(),
              [](const TrackingRecord& a, const TrackingRecord& b) {
                return std::tie(a.ts, a.id, a.loc) <
                       std::tie(b.ts, b.id, b.loc);
              });
    scenarios.push_back(std::move(s));
  }
  // Windows go through the batch pipeline, so the stream honours every
  // RepairOptions knob: replay the first shape once more with the
  // all-pairs Gm build instead of the LIG probe.
  if (!scenarios.empty()) {
    StreamScenario no_lig = scenarios.front();
    no_lig.name += "_no_lig";
    no_lig.options.use_lig = false;
    scenarios.push_back(std::move(no_lig));
  }
  return scenarios;
}

/// How the stream is driven — each pattern exercises a different eviction
/// path through the engine (settled emission, forced horizon flush with
/// deferral and component splits, and the full-drain Finish).
struct EvictionPattern {
  const char* name;
  double flush_horizon_multiplier;
  size_t poll_every;  // records between Poll() calls; 0 = Finish only
};

const EvictionPattern kPatterns[] = {
    {"settle_cadence", 4.0, 25},
    {"forced_horizon", 1.0, 10},
    {"finish_only", 2.0, 0},
};

size_t TotalPoints(const std::vector<Trajectory>& trajectories) {
  size_t n = 0;
  for (const auto& t : trajectories) n += t.size();
  return n;
}

void ExpectSameTrajectories(const std::vector<Trajectory>& got,
                            const std::vector<Trajectory>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id(), want[i].id()) << "trajectory " << i;
    ASSERT_EQ(got[i].size(), want[i].size()) << "trajectory " << i;
    for (size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(got[i].points()[j].loc, want[i].points()[j].loc)
          << "trajectory " << i << " point " << j;
      EXPECT_EQ(got[i].points()[j].ts, want[i].points()[j].ts)
          << "trajectory " << i << " point " << j;
    }
  }
}

/// Drives one scenario/pattern/thread combination and returns everything
/// the stream emitted, asserting the per-window batch equivalence on the
/// way through.
void RunAndVerify(const StreamScenario& s, const EvictionPattern& pattern,
                  int threads, std::vector<Trajectory>* emitted_out) {
  RepairOptions options = s.options;
  options.exec.num_threads = threads;
  StreamOptions stream_options;
  stream_options.flush_horizon_multiplier = pattern.flush_horizon_multiplier;
  StreamingRepairer stream(s.graph, options, stream_options);
  stream.set_capture_windows(true);

  std::vector<Trajectory> emitted;
  size_t since_poll = 0;
  for (const auto& r : s.records) {
    Status appended = stream.Append(r);
    ASSERT_TRUE(appended.ok()) << appended;
    if (pattern.poll_every > 0 && ++since_poll >= pattern.poll_every) {
      since_poll = 0;
      auto out = stream.Poll();
      emitted.insert(emitted.end(), out.begin(), out.end());
    }
  }
  auto tail = stream.Finish();
  emitted.insert(emitted.end(), tail.begin(), tail.end());

  // Nothing buffered, nothing lost: eviction conserves records exactly.
  EXPECT_EQ(stream.pending_records(), 0u);
  EXPECT_EQ(TotalPoints(emitted), s.records.size());
  EXPECT_EQ(stream.emitted_trajectories(), emitted.size());

  // Every window the engine repaired — settled, forced, or drained by
  // Finish — must reproduce the batch pipeline over exactly those records.
  const auto& windows = stream.captured_windows();
  EXPECT_FALSE(windows.empty());
  IdRepairer batch(s.graph, options);
  for (size_t w = 0; w < windows.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w) +
                 (windows[w].forced ? " (forced)" : " (settled)"));
    ASSERT_FALSE(windows[w].degraded);
    TrajectorySet window_set = TrajectorySet::FromRecords(windows[w].records);
    auto ref = batch.Repair(window_set);
    ASSERT_TRUE(ref.ok()) << ref.status();
    ExpectSameTrajectories(windows[w].repaired,
                           ref->repaired.trajectories());
  }
  *emitted_out = std::move(emitted);
}

TEST(StreamDifferentialTest, WindowsAreByteIdenticalToBatch) {
  for (const StreamScenario& s : MakeStreamScenarios()) {
    for (const EvictionPattern& pattern : kPatterns) {
      // The emitted stream must also be invariant across thread counts:
      // the incremental layer is single-threaded and the inner pipeline is
      // deterministic, so parallelism may change timing only.
      std::vector<Trajectory> single;
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(s.name + std::string("/") + pattern.name +
                     "/threads=" + std::to_string(threads));
        std::vector<Trajectory> emitted;
        RunAndVerify(s, pattern, threads, &emitted);
        if (testing::Test::HasFatalFailure()) return;
        if (threads == 1) {
          single = std::move(emitted);
        } else {
          ExpectSameTrajectories(emitted, single);
        }
      }
    }
  }
}

// The amortized-cost contract behind the incremental design: once a
// component has settled (and been emitted), appends to a *different*
// component never re-run candidate generation for it. Equivalently, the
// generation-run counter tracks the number of distinct repaired windows,
// not the number of appends or polls.
TEST(StreamDifferentialTest, AppendsDoNotRegenerateSettledComponents) {
  auto graph = MakePaperExampleGraph();
  RepairOptions options = testutil::RunningExampleOptions();  // θ=5, η=1200
  StreamingRepairer stream(graph, options);

  for (const auto& r : testutil::MakeTable1Records()) {
    ASSERT_TRUE(stream.Append(r).ok());
  }
  // A far-future record settles the running-example component.
  ASSERT_TRUE(stream.Append({"Z0", 0, HMS(12, 0, 0)}).ok());
  auto settled = stream.Poll();
  EXPECT_FALSE(settled.empty());
  const size_t runs_after_first = stream.generation_runs();
  EXPECT_GE(runs_after_first, 1u);

  // Grow the second component append by append, polling constantly. The
  // polls see only a live, unsettled component — no window is repaired, so
  // the counter must not move no matter how many records arrive.
  Timestamp ts = HMS(12, 0, 0);
  const LocationId locs[] = {1, 2, 3};
  for (int i = 0; i < 30; ++i) {
    ts += 30;
    ASSERT_TRUE(
        stream.Append({"Z" + std::to_string(i % 3), locs[i % 3], ts}).ok());
    stream.Poll();
  }
  EXPECT_EQ(stream.generation_runs(), runs_after_first);

  // Draining the stream repairs the one remaining component exactly once.
  auto tail = stream.Finish();
  EXPECT_FALSE(tail.empty());
  EXPECT_EQ(stream.generation_runs(), runs_after_first + 1);
  EXPECT_EQ(stream.pending_records(), 0u);
}

// A clean poll cadence reuses buffered records instead of regenerating
// them: the reuse counter grows whenever a poll leaves records untouched.
TEST(StreamDifferentialTest, QuietPollsReuseBufferedRecords) {
  auto graph = MakePaperExampleGraph();
  RepairOptions options = testutil::RunningExampleOptions();
  StreamingRepairer stream(graph, options);
  for (const auto& r : testutil::MakeTable1Records()) {
    ASSERT_TRUE(stream.Append(r).ok());
  }
  EXPECT_EQ(stream.records_reused(), 0u);
  stream.Poll();  // nothing settled: every pending record rides through
  EXPECT_EQ(stream.records_reused(), testutil::MakeTable1Records().size());
  EXPECT_EQ(stream.poll_count(), 1u);
}

// Bounded-buffer backpressure: a full buffer rejects the append without
// mutating any state, and the rejection is counted.
TEST(StreamDifferentialTest, MaxBufferedRejectsWithoutMutation) {
  auto graph = MakePaperExampleGraph();
  RepairOptions options = testutil::RunningExampleOptions();
  StreamOptions stream_options;
  stream_options.max_buffered = 3;
  StreamingRepairer stream(graph, options, stream_options);
  auto records = testutil::MakeTable1Records();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(stream.Append(records[i]).ok());
  }
  Status rejected = stream.Append(records[3]);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stream.pending_records(), 3u);
  EXPECT_EQ(stream.appends_rejected(), 1u);
  EXPECT_EQ(stream.watermark(), records[2].ts);  // untouched by the reject

  // Draining restores capacity; the rejected record can be retried.
  stream.Finish();
  EXPECT_EQ(stream.pending_records(), 0u);
  ASSERT_TRUE(stream.Append(records[3]).ok());
  EXPECT_EQ(stream.pending_records(), 1u);
}

}  // namespace
}  // namespace idrepair

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "obs/scrape.h"
#include "obs/trace.h"
#include "repair/repairer.h"
#include "repair/selectors.h"
#include "test_util.h"

namespace idrepair {
namespace {

/// Every test here leaves the process-wide switch the way it found it
/// (off), so the rest of the suite keeps its zero-overhead path.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::SetEnabled(false); }
};

TEST_F(ObsTest, CounterMergesIncrementsFromPoolThreads) {
  obs::Counter counter;
  for (int threads : {1, 2, 8}) {
    counter.Reset();
    ThreadPool pool(threads);
    Status status =
        ParallelFor(&pool, 64, threads, 1, [&counter](size_t, size_t, size_t) {
          for (int k = 0; k < 100; ++k) counter.Increment();
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(counter.Value(), 6400u) << "threads=" << threads;
  }
}

TEST_F(ObsTest, HistogramBucketsBoundsInclusiveAndIntegerTickSum) {
  obs::Histogram h({1.0, 2.0});
  h.Observe(0.5);   // le="1"
  h.Observe(1.0);   // le="1" (bounds are inclusive)
  h.Observe(1.5);   // le="2"
  h.Observe(9.0);   // +Inf
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
  // 0.5 + 1.0 + 1.5 + 9.0 stored in 1e-9 ticks: exact, no float
  // reassociation.
  EXPECT_DOUBLE_EQ(h.Sum(), 12.0);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
}

TEST_F(ObsTest, ExponentialBucketsGrowGeometrically) {
  std::vector<double> b = obs::ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_EQ(obs::DefaultLatencyBuckets().size(), 24u);
}

TEST_F(ObsTest, RegistrySnapshotsIdenticalAcrossThreadCounts) {
  // A deterministic workload recorded through 1, 2, and 8 pool threads
  // must render byte-identically: counter merges are integer sums and the
  // histogram sum is kept in integer ticks, so shard assignment (which
  // *does* change with the thread count) never shows in a snapshot.
  obs::MetricsRegistry registry;
  obs::Counter* items = registry.GetCounter(
      "test_items_total", obs::Stability::kStable, "items processed");
  obs::Histogram* weights = registry.GetHistogram(
      "test_weight", obs::Stability::kStable, {0.25, 0.5, 1.0}, "weights");
  std::string reference;
  for (int threads : {1, 2, 8}) {
    registry.Reset();
    ThreadPool pool(threads);
    Status status =
        ParallelFor(&pool, 16, threads, 1, [=](size_t task, size_t, size_t) {
          for (size_t i = 0; i < 25; ++i) {
            items->Increment(2);
            weights->Observe(static_cast<double>((task * 25 + i) % 5) * 0.25);
          }
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status;
    std::string rendered = registry.RenderPrometheus();
    if (threads == 1) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference) << "threads=" << threads;
    }
  }
}

TEST_F(ObsTest, PrometheusRenderGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo_ops_total", obs::Stability::kStable,
                      "operations")->Increment(3);
  registry.GetGauge("demo_depth", obs::Stability::kRuntime)->Set(-2);
  obs::Histogram* h = registry.GetHistogram(
      "demo_seconds", obs::Stability::kRuntime, {0.1, 1.0}, "latency");
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  // Name-sorted, deterministic bound formatting ("0.1", "1", never
  // scientific notation), cumulative buckets, integer-tick-exact sum.
  EXPECT_EQ(registry.RenderPrometheus(),
            "# TYPE demo_depth gauge\n"
            "demo_depth -2\n"
            "# HELP demo_ops_total operations\n"
            "# TYPE demo_ops_total counter\n"
            "demo_ops_total 3\n"
            "# HELP demo_seconds latency\n"
            "# TYPE demo_seconds histogram\n"
            "demo_seconds_bucket{le=\"0.1\"} 1\n"
            "demo_seconds_bucket{le=\"1\"} 2\n"
            "demo_seconds_bucket{le=\"+Inf\"} 3\n"
            "demo_seconds_sum 5.55\n"
            "demo_seconds_count 3\n");
}

TEST_F(ObsTest, StableFilterExcludesRuntimeMetrics) {
  obs::MetricsRegistry registry;
  registry.GetCounter("stable_total", obs::Stability::kStable)->Increment();
  registry.GetCounter("runtime_total", obs::Stability::kRuntime)->Increment();
  auto all = registry.Collect(true);
  auto stable = registry.Collect(false);
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(stable.size(), 1u);
  EXPECT_EQ(stable[0].name, "stable_total");
  std::string rendered = registry.RenderPrometheus(false);
  EXPECT_NE(rendered.find("stable_total"), std::string::npos);
  EXPECT_EQ(rendered.find("runtime_total"), std::string::npos);
}

TEST_F(ObsTest, RegistryResetPreservesRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("keep_total", obs::Stability::kStable);
  c->Increment(7);
  registry.Reset();
  // Same pointer, value zeroed: cached instrument pointers survive a reset.
  EXPECT_EQ(registry.GetCounter("keep_total", obs::Stability::kStable), c);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(registry.NumMetrics(), 1u);
}

TEST_F(ObsTest, TraceSpansNestWithDepth) {
  obs::TraceSink sink(16);
  {
    obs::TraceSpan outer(&sink, "outer");
    { obs::TraceSpan inner(&sink, "inner", 7); }
  }
  std::vector<obs::TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: the outer span began first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_FALSE(events[0].has_arg);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_TRUE(events[1].has_arg);
  EXPECT_EQ(events[1].arg, 7u);
  EXPECT_GE(events[0].dur_us, events[1].dur_us);
}

TEST_F(ObsTest, RingBufferWrapsAndKeepsNewestEvents) {
  obs::TraceSink sink(8);
  for (uint64_t i = 0; i < 20; ++i) {
    obs::TraceSpan span(&sink, "span", i);
  }
  std::vector<obs::TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(sink.dropped_events(), 12u);
  // The survivors are exactly the 8 newest spans.
  std::vector<uint64_t> args;
  for (const auto& e : events) args.push_back(e.arg);
  std::sort(args.begin(), args.end());
  for (size_t i = 0; i < args.size(); ++i) EXPECT_EQ(args[i], 12 + i);
  sink.Clear();
  EXPECT_TRUE(sink.Events().empty());
  EXPECT_EQ(sink.dropped_events(), 0u);
}

TEST_F(ObsTest, WriteJsonEmitsChromeTraceEvents) {
  obs::TraceSink sink(16);
  { obs::TraceSpan span(&sink, "alpha", 3); }
  { obs::TraceSpan span(&sink, "beta"); }
  std::ostringstream out;
  sink.WriteJson(out);
  std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(ObsTest, DisabledSpansRecordNothingGlobally) {
  obs::SetEnabled(false);
  obs::TraceSink::Global().Clear();
  { obs::TraceSpan span("invisible"); }
  EXPECT_TRUE(obs::TraceSink::Global().Events().empty());
}

TEST_F(ObsTest, PhaseScopeFeedsStatsAndTrace) {
  obs::SetEnabled(true);
  obs::TraceSink::Global().Clear();
  double wall = 0.0;
  double cpu = 0.0;
  { obs::PhaseScope phase("test.phase", &wall, &cpu); }
  EXPECT_GE(wall, 0.0);
  EXPECT_GE(cpu, 0.0);
  std::vector<obs::TraceEvent> events = obs::TraceSink::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.phase");
  obs::SetEnabled(false);
  // Disabled: stats still accumulate, the trace sees nothing.
  obs::TraceSink::Global().Clear();
  double wall2 = 0.0;
  { obs::PhaseScope phase("test.phase", &wall2); }
  EXPECT_GE(wall2, 0.0);
  EXPECT_TRUE(obs::TraceSink::Global().Events().empty());
}

/// Deterministic sparse dataset that splits into several chain components.
TrajectorySet SparseSet(const TransitionGraph& graph) {
  SyntheticConfig config;
  config.num_trajectories = 150;
  config.max_path_len = 4;
  config.window_seconds = 40000;
  config.seed = 5;
  auto ds = GenerateSyntheticDataset(graph, config);
  EXPECT_TRUE(ds.ok());
  return ds->BuildObservedTrajectories();
}

TEST_F(ObsTest, RepairWithObsEnabledPopulatesMetricsAndTrace) {
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SparseSet(graph);
  obs::MetricsRegistry::Global().Reset();
  obs::TraceSink::Global().Clear();

  obs::SetEnabled(true);
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());

  uint64_t runs = 0;
  uint64_t candidates = 0;
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == "idrepair_repair_runs_total") runs = m.counter_value;
    if (m.name == "idrepair_repair_candidates_total") {
      candidates = m.counter_value;
    }
  }
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(candidates, result->stats.num_candidates);

  std::vector<obs::TraceEvent> events = obs::TraceSink::Global().Events();
  ASSERT_FALSE(events.empty());
  bool saw_run = false;
  for (const auto& e : events) {
    if (std::string(e.name) == "repair.run") saw_run = true;
  }
  EXPECT_TRUE(saw_run);
}

// DMIN through the engine builds Gr once — its cover lists and degrees,
// never its edges — and commits from it: the trace holds one degree pass's
// blocks, the commit loop adds none (it never recounts), and the
// conflict-degree histogram observes one degree per candidate, summing to
// 2 × gr_edges. A caller that passes the selector explicitly takes the same
// path and leaves the same blocks.
TEST_F(ObsTest, DminRunCountsDegreesOnce) {
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SparseSet(graph);
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.selection = SelectionAlgorithm::kDmin;
  auto spans_named = [](const char* name) {
    size_t n = 0;
    for (const auto& e : obs::TraceSink::Global().Events()) {
      if (std::string(e.name) == name) ++n;
    }
    return n;
  };
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  obs::TraceSink::Global().Clear();
  auto result = IdRepairer(graph, options).Repair(set);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->stats.gr_edges, 0u);
  const size_t degree_blocks = spans_named("selection.degree.shard");
  EXPECT_GT(degree_blocks, 0u);
  bool saw_histogram = false;
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name != "idrepair_selection_conflict_degree") continue;
    saw_histogram = true;
    EXPECT_EQ(m.total_count, result->stats.num_candidates);
    EXPECT_EQ(m.sum, 2.0 * static_cast<double>(result->stats.gr_edges));
  }
  EXPECT_TRUE(saw_histogram);

  obs::TraceSink::Global().Clear();
  DminSelector dmin;
  auto explicit_run = IdRepairer(graph, options).Repair(set, &dmin);
  ASSERT_TRUE(explicit_run.ok()) << explicit_run.status();
  EXPECT_EQ(spans_named("selection.degree.shard"), degree_blocks);
  EXPECT_EQ(explicit_run->selected, result->selected);
  EXPECT_EQ(explicit_run->stats.gr_edges, result->stats.gr_edges);
}

// The Prometheus names a run leaves behind, pinned. RunRecorder derives
// them from RepairStats::Visit, so renaming a field renames its metric, and
// this list is where that shows.
TEST_F(ObsTest, EveryEngineRecordsItsRunUnderThePinnedNames) {
  const std::vector<std::string> kRunMetrics = {
      "attempts_total", "runs_total",
      // kCount fields: kStable counters
      "trajectories_total", "invalid_total", "gm_edges_total",
      "cex_evaluations_total", "cliques_enumerated_total", "pck_pruned_total",
      "jnb_checks_total", "joinable_subsets_total", "candidates_total",
      "gr_edges_total", "selected_total",
      // kSeconds fields: kRuntime histograms
      "gm_seconds", "generation_seconds", "selection_seconds",
      "selection_graph_seconds", "apply_seconds", "total_seconds",
      "gm_cpu_seconds",
      "generation_cpu_seconds", "total_cpu_seconds"};
  const std::vector<std::pair<std::string, std::string>> kPrefixes = {
      {"core", "repair"},
      {"streaming", "stream"},
      {"idsim", "baseline_idsim"},
      {"neighborhood", "baseline_neighborhood"}};
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = testutil::MakeTable2Trajectories();
  RepairOptions options = testutil::RunningExampleOptions();
  obs::SetEnabled(true);
  for (const auto& [engine, prefix] : kPrefixes) {
    SCOPED_TRACE(engine);
    obs::MetricsRegistry::Global().Reset();
    auto result =
        testutil::MakeEngineByName(engine, graph, options)->Repair(set);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::string stem = "idrepair_" + prefix + "_";
    std::map<std::string, obs::MetricSnapshot> recorded;
    for (auto& m : obs::MetricsRegistry::Global().Collect()) {
      if (m.name.compare(0, stem.size(), stem) == 0) {
        recorded.emplace(m.name.substr(stem.size()), std::move(m));
      }
    }
    for (const std::string& name : kRunMetrics) {
      auto it = recorded.find(name);
      ASSERT_NE(it, recorded.end()) << stem << name;
      const bool seconds = name.size() > 8 &&
                           name.compare(name.size() - 8, 8, "_seconds") == 0;
      EXPECT_EQ(it->second.type, seconds ? obs::MetricSnapshot::Type::kHistogram
                                         : obs::MetricSnapshot::Type::kCounter)
          << name;
      EXPECT_EQ(it->second.stability,
                seconds ? obs::Stability::kRuntime : obs::Stability::kStable)
          << name;
      if (seconds) {
        EXPECT_EQ(it->second.total_count, 1u) << name;
      }
    }
    EXPECT_EQ(recorded.at("attempts_total").counter_value, 1u);
    EXPECT_EQ(recorded.at("runs_total").counter_value, 1u);
    EXPECT_EQ(recorded.at("trajectories_total").counter_value, 3u);
    EXPECT_EQ(recorded.at("invalid_total").counter_value, 2u);
    EXPECT_EQ(recorded.at("candidates_total").counter_value,
              result->stats.num_candidates);
    // The stream's Append/Poll counters share its prefix; every other
    // prefix holds the run record alone.
    if (prefix != "stream") {
      EXPECT_EQ(recorded.size(), kRunMetrics.size());
    }
  }
  // Mirrors that no field backs are gone: the rewrite and ID-pair counts,
  // the pick histogram (pick = selection - graph), and the cliques counter
  // now named after its field.
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    for (const char* gone :
         {"idrepair_repair_cliques_total", "idrepair_repair_rewrites_total",
          "idrepair_repair_selection_pick_seconds",
          "idrepair_baseline_idsim_pairs_total",
          "idrepair_baseline_idsim_rewrites_total",
          "idrepair_baseline_neighborhood_rewrites_total"}) {
      EXPECT_NE(m.name, gone);
    }
  }
}

TEST_F(ObsTest, StableMetricsByteIdenticalAcrossRepairThreadCounts) {
  // The acceptance invariant of the subsystem: a full core repair
  // records the *same* stable metric values — rendered byte-for-byte — at
  // 1, 2, and 8 threads. Runtime metrics (latencies, steals) are excluded
  // by the stable filter; everything else must not depend on scheduling.
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SparseSet(graph);
  std::string reference;
  obs::SetEnabled(true);
  for (int threads : {1, 2, 8}) {
    obs::MetricsRegistry::Global().Reset();
    obs::TraceSink::Global().Clear();
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.exec.num_threads = threads;
    IdRepairer repairer(graph, options);
    auto result = repairer.Repair(set);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    std::string rendered =
        obs::MetricsRegistry::Global().RenderPrometheus(false);
    EXPECT_NE(rendered.find("idrepair_repair_runs_total"), std::string::npos);
    if (threads == 1) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference) << "threads=" << threads;
    }
  }
}

TEST_F(ObsTest, MetricsScraperAppendsSelfDelimitingBlocks) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "idrepair_obs_scrape_test.prom";
  fs::remove(path);

  obs::SetEnabled(true);
  obs::MetricsRegistry::Global()
      .GetCounter("idrepair_scrape_test_total", obs::Stability::kRuntime,
                  "scrape test marker")
      ->Increment(3);
  {
    obs::MetricsScraper::Options options;
    options.path = path.string();
    options.interval_ms = 20;
    auto scraper = obs::MetricsScraper::Start(options);
    ASSERT_TRUE(scraper.ok()) << scraper.status();
    // Wait for the first timer tick by polling under a generous deadline,
    // not by sleeping a fixed time: a busy machine only slows the test.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((*scraper)->scrapes() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE((*scraper)->scrapes(), 1u) << "no timer tick within 30 s";
    (*scraper)->Stop();
    (*scraper)->Stop();  // idempotent
    EXPECT_TRUE((*scraper)->last_error().ok());
    // At least one timer tick plus the final scrape on Stop().
    EXPECT_GE((*scraper)->scrapes(), 2u);
  }

  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Sequence-numbered block headers, starting at 1, and every block carries
  // the full exposition (our marker counter included).
  EXPECT_NE(content.find("# idrepair scrape seq=1\n"), std::string::npos)
      << content.substr(0, 400);
  EXPECT_NE(content.find("# idrepair scrape seq=2\n"), std::string::npos);
  EXPECT_NE(content.find("idrepair_scrape_test_total 3"), std::string::npos);

  // A scraper over an unwritable path fails at Start, not on a timer tick.
  obs::MetricsScraper::Options bad;
  bad.path = "/nonexistent-dir/metrics.prom";
  EXPECT_FALSE(obs::MetricsScraper::Start(bad).ok());
  obs::MetricsScraper::Options empty;
  EXPECT_FALSE(obs::MetricsScraper::Start(empty).ok());

  fs::remove(path);
}

}  // namespace
}  // namespace idrepair

// Golden test for the --stats-json document shape: the key set and order
// emitted by WriteStatsJson are a stable machine-readable contract (CI
// dashboards and the bench harness parse it), so any change here must be a
// deliberate, reviewed one — update the pinned lists below in the same
// commit that changes the writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "fault/failpoint.h"
#include "obs/obs.h"
#include "repair/repairer.h"
#include "repair/stats_json.h"
#include "test_util.h"

namespace idrepair {
namespace {

// Every `"key":` token of the document, in emission order (objects and
// nested objects flattened; array contents skipped by construction since
// no key inside the metrics array collides with the top-level names we
// pin when metrics are absent).
std::vector<std::string> ExtractKeys(const std::string& json) {
  std::vector<std::string> keys;
  size_t pos = 0;
  while ((pos = json.find('"', pos)) != std::string::npos) {
    size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    if (end + 1 < json.size() && json[end + 1] == ':') {
      keys.push_back(json.substr(pos + 1, end - pos - 1));
    }
    pos = end + 1;
  }
  return keys;
}

std::string RenderStatsJson(const RepairOptions& options,
                            const RepairResult& result) {
  std::ostringstream out;
  WriteStatsJson(out, "core", options, result);
  return std::move(out).str();
}

TEST(StatsJsonTest, KeyOrderIsPinned) {
  auto set = testutil::MakeTable2Trajectories();
  auto graph = MakePaperExampleGraph();
  RepairOptions options = testutil::RunningExampleOptions();
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok()) << result.status();

  // The golden key sequence (obs disabled, so no trailing metrics array).
  ASSERT_FALSE(obs::Enabled())
      << "run this test before anything enables obs globally";
  const std::vector<std::string> kGolden = {
      "engine",
      // options
      "options", "theta", "eta", "zeta", "lambda", "time_bin", "use_lig",
      "use_mcp_pruning", "selection", "num_threads", "grain", "deadline_ms",
      // stats: one walk of RepairStats::Visit, then the clock source
      "stats", "num_trajectories", "num_invalid", "gm_edges",
      "cex_evaluations", "cliques_enumerated", "pck_pruned", "jnb_checks",
      "joinable_subsets", "num_candidates", "gr_edges", "num_selected",
      "seconds_gm", "seconds_generation", "seconds_selection",
      "seconds_selection_graph", "seconds_apply", "seconds_total",
      "cpu_seconds_gm", "cpu_seconds_generation", "cpu_seconds_total",
      "threads_used", "sched_blocks", "sched_workers", "sched_imbalance",
      "cpu_clock_source",
      // result summary + run health
      "total_effectiveness", "num_rewrites", "completion", "code", "message",
      "fault", "armed_sites", "total_fires",
  };
  EXPECT_EQ(ExtractKeys(RenderStatsJson(options, *result)), kGolden);

  // The stats block is Visit's order, so a field added to RepairStats
  // shows up here with no change to the writer.
  std::vector<std::string> visited = {"stats"};
  result->stats.Visit([&](const char* name, StatKind, auto) {
    visited.push_back(name);
  });
  visited.push_back("cpu_clock_source");
  auto stats_begin = std::find(kGolden.begin(), kGolden.end(), "stats");
  EXPECT_EQ(std::vector<std::string>(stats_begin,
                                     stats_begin + visited.size()),
            visited);
}

TEST(StatsJsonTest, CompletionAndFaultBlocksReflectRunHealth) {
  auto set = testutil::MakeTable2Trajectories();
  auto graph = MakePaperExampleGraph();
  RepairOptions options = testutil::RunningExampleOptions();
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok()) << result.status();

  std::string clean = RenderStatsJson(options, *result);
  EXPECT_NE(clean.find("\"completion\":{\"code\":\"OK\",\"message\":\"\"}"),
            std::string::npos)
      << clean;
  EXPECT_NE(clean.find("\"fault\":{\"armed_sites\":0,\"total_fires\":0"),
            std::string::npos)
      << clean;

  // A degraded result and an armed site both show up in the document.
  result->completion = Status::DeadlineExceeded("budget ran out");
  fault::FaultSpec spec;
  spec.fire_on_hit = 1000000000;
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  .Arm("stats_json.test.site", spec)
                  .ok());
  std::string degraded = RenderStatsJson(options, *result);
  fault::FailPointRegistry::Global().DisarmAll();

  EXPECT_NE(degraded.find("\"code\":\"DeadlineExceeded\""),
            std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("\"message\":\"budget ran out\""),
            std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("\"armed_sites\":1"), std::string::npos)
      << degraded;
  // Touched sites get a per-site breakdown (the --failpoints-status data,
  // machine-readable); clean runs omit the array entirely.
  EXPECT_NE(degraded.find("\"sites\":[{\"name\":\"stats_json.test.site\","
                          "\"armed\":true,\"hits\":0,\"fires\":0}]"),
            std::string::npos)
      << degraded;
  EXPECT_EQ(clean.find("\"sites\""), std::string::npos) << clean;
}

TEST(StatsJsonTest, DeadlineOptionRoundTripsIntoOptionsBlock) {
  auto set = testutil::MakeTable2Trajectories();
  auto graph = MakePaperExampleGraph();
  RepairOptions options = testutil::RunningExampleOptions();
  options.deadline_ms = 1234;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(RenderStatsJson(options, *result).find("\"deadline_ms\":1234"),
            std::string::npos);
}

}  // namespace
}  // namespace idrepair

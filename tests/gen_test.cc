#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/crc32.h"
#include "common/rng.h"
#include "gen/dataset.h"
#include "gen/error_model.h"
#include "gen/id_generator.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "gen/travel_time.h"
#include "graph/generators.h"
#include "sim/edit_distance.h"

namespace idrepair {
namespace {

// --------------------------------------------------------- UniqueIdGenerator

TEST(UniqueIdGeneratorTest, ProducesLowercaseIdsOfConfiguredLength) {
  Rng rng(1);
  UniqueIdGenerator gen(7, 9);
  for (int i = 0; i < 500; ++i) {
    std::string id = gen.Next(rng);
    EXPECT_GE(id.size(), 7u);
    EXPECT_LE(id.size(), 9u);
    for (char c : id) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(UniqueIdGeneratorTest, NeverRepeats) {
  Rng rng(2);
  UniqueIdGenerator gen(7, 9);
  std::unordered_set<std::string> seen;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(seen.insert(gen.Next(rng)).second);
  }
}

TEST(UniqueIdGeneratorTest, ReserveBlocksAnId) {
  Rng rng(3);
  UniqueIdGenerator gen(1, 1);  // tiny space: collisions likely
  gen.Reserve("a");
  EXPECT_TRUE(gen.IsUsed("a"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(gen.Next(rng), "a");
  }
}

// -------------------------------------------------------------- TravelTime

TEST(TravelTimeModelTest, SamplesArePositive) {
  TravelTimeModel model;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    EXPECT_GE(model.SampleSeconds(0, 1, rng), 1);
  }
}

TEST(TravelTimeModelTest, MedianIsDeterministicPerEdge) {
  TravelTimeModel model;
  EXPECT_EQ(model.MedianSeconds(0, 1), model.MedianSeconds(0, 1));
  EXPECT_GE(model.MedianSeconds(0, 1), 60.0);
  EXPECT_LE(model.MedianSeconds(0, 1), 180.0);
}

TEST(TravelTimeModelTest, SamplesCenterOnTheMedian) {
  TravelTimeModel model(/*sigma=*/0.35);
  Rng rng(5);
  double median = model.MedianSeconds(2, 3);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(model.SampleSeconds(2, 3, rng));
  }
  // Log-normal mean = median * exp(sigma^2 / 2) ≈ median * 1.063.
  EXPECT_NEAR(sum / n, median * 1.063, median * 0.1);
}

// ------------------------------------------------------------- IdErrorModel

TEST(IdErrorModelTest, MutationAlwaysDiffers) {
  IdErrorModel model;
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    EXPECT_NE(model.Mutate("gl21348", rng), "gl21348");
  }
}

TEST(IdErrorModelTest, MutationDistanceFollowsDistribution) {
  ErrorDistanceDistribution dist;
  dist.probs_by_distance = {1.0};  // always one edit
  IdErrorModel model(dist);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    std::string out = model.Mutate("abcdefgh", rng);
    EXPECT_EQ(EditDistance("abcdefgh", out), 1u);
  }
}

TEST(IdErrorModelTest, MutationDistanceUpperBounded) {
  IdErrorModel model;  // distances 1..4
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    std::string out = model.Mutate("abcdefgh", rng);
    EXPECT_LE(EditDistance("abcdefgh", out), 4u);
    EXPECT_GE(EditDistance("abcdefgh", out), 1u);
  }
}

TEST(IdErrorModelTest, RespectsCollisionFilter) {
  IdErrorModel model;
  Rng rng(9);
  std::unordered_set<std::string> taken = {"aacdefgh", "bbcdefgh"};
  auto is_taken = [&](const std::string& s) { return taken.count(s) > 0; };
  for (int i = 0; i < 200; ++i) {
    std::string out = model.Mutate("abcdefgh", rng, is_taken);
    EXPECT_EQ(taken.count(out), 0u);
    EXPECT_NE(out, "abcdefgh");
  }
}

TEST(IdErrorModelTest, SingleCharIdsNeverBecomeEmpty) {
  IdErrorModel model;
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(model.Mutate("a", rng).empty());
  }
}

// ----------------------------------------------------------- clean datasets

TEST(GenerateCleanDatasetTest, AllTrajectoriesValidAndComplete) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 200;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->NumEntities(), 200u);
  EXPECT_DOUBLE_EQ(ds->RecordErrorRate(), 0.0);
  TrajectorySet set = ds->BuildObservedTrajectories();
  EXPECT_EQ(set.size(), 200u);
  for (const auto& t : set.trajectories()) {
    EXPECT_TRUE(t.IsValid(g)) << t.ToString(g);
  }
}

TEST(GenerateCleanDatasetTest, RecordsAreChronologicallySorted) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 100;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  for (size_t i = 0; i + 1 < ds->records.size(); ++i) {
    EXPECT_LE(ds->records[i].ts, ds->records[i + 1].ts);
  }
}

TEST(GenerateCleanDatasetTest, DeterministicBySeed) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 50;
  config.max_path_len = 4;
  config.seed = 77;
  auto a = GenerateCleanDataset(g, config);
  auto b = GenerateCleanDataset(g, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->records, b->records);
  config.seed = 78;
  auto c = GenerateCleanDataset(g, config);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->records, c->records);
}

TEST(GenerateCleanDatasetTest, PathWeightsMustMatchPathCount) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.path_weights = {0.5, 0.5};  // graph has 3 valid paths
  auto ds = GenerateCleanDataset(g, config);
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
}

TEST(GenerateCleanDatasetTest, PathWeightsSkewPathChoice) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 300;
  config.max_path_len = 4;
  config.path_weights = {0.0, 0.0, 1.0};  // only C->D (2 records)
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->records.size(), 600u);
}

TEST(GenerateCleanDatasetTest, RejectsGraphWithoutValidPaths) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  SyntheticConfig config;
  auto ds = GenerateCleanDataset(g, config);
  EXPECT_FALSE(ds.ok());
}

// ----------------------------------------------------------- error injection

TEST(InjectIdErrorsTest, RateIsApproximatelyHonored) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 2000;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  Rng rng(11);
  IdErrorModel model;
  InjectIdErrors(*ds, 0.2, model, rng);
  EXPECT_NEAR(ds->RecordErrorRate(), 0.2, 0.02);
}

TEST(InjectIdErrorsTest, ZeroRateChangesNothing) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 100;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  auto before = ds->records;
  Rng rng(12);
  IdErrorModel model;
  InjectIdErrors(*ds, 0.0, model, rng);
  EXPECT_EQ(ds->records, before);
}

TEST(InjectIdErrorsTest, CorruptedIdsNeverCollideWithTrueIds) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 500;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  std::unordered_set<std::string> true_ids;
  for (const auto& r : ds->records) true_ids.insert(r.true_id);
  Rng rng(13);
  IdErrorModel model;
  InjectIdErrors(*ds, 0.3, model, rng);
  for (const auto& r : ds->records) {
    if (r.corrupted()) {
      EXPECT_EQ(true_ids.count(r.observed_id), 0u) << r.observed_id;
    }
  }
}

TEST(InjectIdErrorsTest, ErrorsFractureTrajectories) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 300;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  Rng rng(14);
  IdErrorModel model;
  InjectIdErrors(*ds, 0.2, model, rng);
  TrajectorySet observed = ds->BuildObservedTrajectories();
  EXPECT_GT(observed.size(), 300u);  // fragments appeared
  EXPECT_EQ(observed.total_records(), ds->records.size());
}

// --------------------------------------------------------- missing injection

TEST(InjectMissingRecordsTest, RateIsApproximatelyHonored) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 2000;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  size_t before = ds->records.size();
  Rng rng(15);
  InjectMissingRecords(*ds, 0.1, rng);
  double removed =
      1.0 - static_cast<double>(ds->records.size()) /
                static_cast<double>(before);
  EXPECT_NEAR(removed, 0.1, 0.02);
}

TEST(InjectMissingRecordsTest, ZeroAndFullRates) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 50;
  config.max_path_len = 4;
  auto ds = GenerateCleanDataset(g, config);
  ASSERT_TRUE(ds.ok());
  size_t before = ds->records.size();
  Rng rng(16);
  InjectMissingRecords(*ds, 0.0, rng);
  EXPECT_EQ(ds->records.size(), before);
  InjectMissingRecords(*ds, 1.0, rng);
  EXPECT_TRUE(ds->records.empty());
}

// -------------------------------------------------- GenerateSyntheticDataset

TEST(GenerateSyntheticDatasetTest, ComposesAllStages) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 500;
  config.max_path_len = 4;
  config.record_error_rate = 0.15;
  config.record_missing_rate = 0.05;
  auto ds = GenerateSyntheticDataset(g, config);
  ASSERT_TRUE(ds.ok());
  EXPECT_NEAR(ds->RecordErrorRate(), 0.15, 0.04);
  EXPECT_LT(ds->records.size(), 500u * 4u);
}

TEST(GenerateSyntheticDatasetTest, ErrorRateDoesNotPerturbMissingStage) {
  // Changing the error rate must keep the *set of surviving record slots*
  // identical (independent per-stage RNG streams).
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 200;
  config.max_path_len = 4;
  config.record_missing_rate = 0.1;
  config.record_error_rate = 0.0;
  auto a = GenerateSyntheticDataset(g, config);
  config.record_error_rate = 0.2;
  auto b = GenerateSyntheticDataset(g, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->records.size(), b->records.size());
  for (size_t i = 0; i < a->records.size(); ++i) {
    EXPECT_EQ(a->records[i].true_id, b->records[i].true_id);
    EXPECT_EQ(a->records[i].loc, b->records[i].loc);
    EXPECT_EQ(a->records[i].ts, b->records[i].ts);
  }
}

// -------------------------------------------------- SyntheticConfig::Validate

TEST(SyntheticConfigValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(SyntheticConfig().Validate().ok());
}

TEST(SyntheticConfigValidateTest, RejectsOutOfRangeFields) {
  auto expect_invalid = [](const SyntheticConfig& config, const char* what) {
    Status status = config.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status;
  };
  SyntheticConfig config;
  config.record_error_rate = 1.5;
  expect_invalid(config, "error rate > 1");
  config = SyntheticConfig();
  config.record_missing_rate = -0.1;
  expect_invalid(config, "negative missing rate");
  config = SyntheticConfig();
  config.max_path_len = 0;
  expect_invalid(config, "zero path length");
  config = SyntheticConfig();
  config.window_seconds = -1;
  expect_invalid(config, "negative window");
  config = SyntheticConfig();
  config.path_weights = {0.5, -0.5};
  expect_invalid(config, "negative path weight");
  config = SyntheticConfig();
  config.error_distances.probs_by_distance.clear();
  expect_invalid(config, "empty error distribution");
  config = SyntheticConfig();
  config.error_distances.probs_by_distance = {0.0, 0.0};
  expect_invalid(config, "all-zero error distribution");
  config = SyntheticConfig();
  config.travel_sigma = -0.1;
  expect_invalid(config, "negative travel sigma");
  config = SyntheticConfig();
  config.travel_median_lo = 120;
  config.travel_median_hi = 60;
  expect_invalid(config, "inverted travel median range");
}

TEST(SyntheticConfigValidateTest, GenerationRejectsInvalidConfigLoudly) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.record_error_rate = 2.0;
  auto ds = GenerateSyntheticDataset(g, config);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------- golden determinism

// Canonical byte serialization of a labeled record stream, for hashing.
std::string CanonicalRecordBytes(const Dataset& ds) {
  std::string bytes;
  for (const auto& r : ds.records) {
    bytes += r.true_id;
    bytes += '|';
    bytes += r.observed_id;
    bytes += '|';
    bytes += std::to_string(r.loc);
    bytes += '|';
    bytes += std::to_string(r.ts);
    bytes += '\n';
  }
  return bytes;
}

// The generator is a pure function of (graph, config): two runs in the
// same process must agree byte for byte, and the stream must match the
// golden checksum pinned below. The pin catches cross-build drift — an
// accidental reorder of RNG draws, a std::shuffle swapped in for the
// hand-rolled Fisher-Yates, a platform-dependent distribution — that
// two-runs-in-one-binary determinism checks are blind to. Re-pin only for
// a deliberate generator change, and say so in the commit.
TEST(GenerateSyntheticDatasetTest, GoldenChecksumPinsByteDeterminism) {
  TransitionGraph g = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 120;
  config.max_path_len = 4;
  config.record_error_rate = 0.15;
  config.record_missing_rate = 0.05;
  config.seed = 2024;
  auto a = GenerateSyntheticDataset(g, config);
  auto b = GenerateSyntheticDataset(g, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->records, b->records);
  EXPECT_EQ(Crc32(CanonicalRecordBytes(*a)), 0x5653A31Bu);
}

// ------------------------------------------------------------------ Dataset

TEST(DatasetTest, ObservedAndTrueViews) {
  Dataset ds;
  ds.graph = MakeRealLikeGraph();
  ds.records = {{"true1", "obs1", 0, 10}, {"true1", "true1", 1, 20}};
  auto observed = ds.ObservedRecords();
  auto truth = ds.TrueRecords();
  EXPECT_EQ(observed[0].id, "obs1");
  EXPECT_EQ(truth[0].id, "true1");
  EXPECT_EQ(ds.NumEntities(), 1u);
  EXPECT_DOUBLE_EQ(ds.RecordErrorRate(), 0.5);
}

// ---------------------------------------------------------------- real-like

TEST(RealLikeDatasetTest, MatchesPaperCalibration) {
  auto ds = MakeRealLikeDataset();
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->NumEntities(), 699u);
  // Paper: 2,045 records; the weighted path mix should land within a few
  // percent.
  EXPECT_NEAR(static_cast<double>(ds->records.size()), 2045.0, 110.0);
  EXPECT_NEAR(ds->RecordErrorRate(), 0.17, 0.03);
  EXPECT_EQ(ds->graph.num_locations(), 4u);
}

TEST(RealLikeDatasetTest, DeterministicBySeed) {
  auto a = MakeRealLikeDataset(5);
  auto b = MakeRealLikeDataset(5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->records, b->records);
}

TEST(ScaledRealLikeDatasetTest, ScalesRecordsWithTrajectories) {
  auto small = MakeScaledRealLikeDataset(2000);
  auto large = MakeScaledRealLikeDataset(6000);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  // Paper §6.4: 2,000 trajectories ≈ 5,189 records; 6,000 ≈ 15,795.
  EXPECT_NEAR(static_cast<double>(small->records.size()), 5189.0, 300.0);
  EXPECT_NEAR(static_cast<double>(large->records.size()), 15795.0, 900.0);
  EXPECT_EQ(small->NumEntities(), 2000u);
  EXPECT_EQ(large->NumEntities(), 6000u);
}

}  // namespace
}  // namespace idrepair

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/generators.h"
#include "test_util.h"
#include "traj/csv.h"
#include "traj/merge.h"
#include "traj/tracking_record.h"
#include "traj/trajectory.h"
#include "traj/trajectory_set.h"

namespace idrepair {
namespace {

using testutil::HMS;
using testutil::MakeTable1Records;
using testutil::MakeTable2Trajectories;

// -------------------------------------------------------------- Trajectory

TEST(TrajectoryTest, ConstructorSortsChronologically) {
  Trajectory t("id", {{2, 30}, {0, 10}, {1, 20}});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.point(0).ts, 10);
  EXPECT_EQ(t.point(1).ts, 20);
  EXPECT_EQ(t.point(2).ts, 30);
  EXPECT_EQ(t.LocationSequence(), (std::vector<LocationId>{0, 1, 2}));
}

TEST(TrajectoryTest, StartEndAndSpan) {
  Trajectory t("id", {{0, 100}, {1, 400}});
  EXPECT_EQ(t.start_time(), 100);
  EXPECT_EQ(t.end_time(), 400);
  EXPECT_EQ(t.TimeSpan(), 300);
}

TEST(TrajectoryTest, ValidityAgainstPaperGraph) {
  TransitionGraph g = MakePaperExampleGraph();
  Trajectory abde("x", {{0, 1}, {1, 2}, {3, 3}, {4, 4}});
  Trajectory cde("y", {{2, 1}, {3, 2}, {4, 3}});
  Trajectory c("z", {{2, 1}});
  Trajectory de("w", {{3, 1}, {4, 2}});
  EXPECT_TRUE(abde.IsValid(g));
  EXPECT_TRUE(cde.IsValid(g));
  EXPECT_FALSE(c.IsValid(g));   // C is not an exit
  EXPECT_FALSE(de.IsValid(g));  // D is not an entrance
}

TEST(TrajectoryTest, EqualTimestampsInvalidateTrajectory) {
  TransitionGraph g = MakePaperExampleGraph();
  Trajectory t("x", {{2, 5}, {3, 5}, {4, 6}});
  EXPECT_FALSE(t.IsValid(g));
}

TEST(TrajectoryTest, EmptyTrajectoryIsInvalid) {
  TransitionGraph g = MakePaperExampleGraph();
  Trajectory t;
  EXPECT_FALSE(t.IsValid(g));
  EXPECT_TRUE(t.empty());
}

TEST(TrajectoryTest, ToStringRendersPaperNotation) {
  TransitionGraph g = MakePaperExampleGraph();
  Trajectory t("GL21348", {{0, 1}, {1, 2}, {3, 3}, {4, 4}});
  EXPECT_EQ(t.ToString(g), "GL21348<A -> B -> D -> E>");
}

// ----------------------------------------------------------- TrajectorySet

TEST(TrajectorySetTest, GroupsTable1IntoTable2) {
  TrajectorySet set = MakeTable2Trajectories();
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.total_records(), 7u);
  // Start-time order: GL21348 (08:09), GL03245 (08:17), GL83248 (08:19).
  EXPECT_EQ(set.at(0).id(), "GL21348");
  EXPECT_EQ(set.at(1).id(), "GL03245");
  EXPECT_EQ(set.at(2).id(), "GL83248");
  EXPECT_EQ(set.at(0).size(), 4u);
  EXPECT_EQ(set.at(1).size(), 1u);
  EXPECT_EQ(set.at(2).size(), 2u);
}

TEST(TrajectorySetTest, OrderIsDeterministicRegardlessOfInputOrder) {
  auto records = MakeTable1Records();
  TrajectorySet a = TrajectorySet::FromRecords(records);
  std::reverse(records.begin(), records.end());
  TrajectorySet b = TrajectorySet::FromRecords(records);
  ASSERT_EQ(a.size(), b.size());
  for (TrajIndex i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i), b.at(i));
  }
}

TEST(TrajectorySetTest, StartTimeTiesBreakById) {
  std::vector<TrackingRecord> records = {
      {"bbb", 0, 100}, {"aaa", 1, 100}, {"ccc", 2, 50}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  EXPECT_EQ(set.at(0).id(), "ccc");
  EXPECT_EQ(set.at(1).id(), "aaa");
  EXPECT_EQ(set.at(2).id(), "bbb");
}

TEST(TrajectorySetTest, ConstructorJoinsTrajectoriesThatShareAnId) {
  TrajectorySet set({Trajectory("b", {{1, 50}, {2, 70}}),
                     Trajectory("a", {{0, 60}}), Trajectory("d", {}),
                     Trajectory("b", {{3, 10}, {2, 60}}),
                     Trajectory("c", {{4, 10}}), Trajectory("c", {})});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.total_records(), 6u);
  // (start, ID) order: b and c both start at 10. Empty ones are dropped.
  EXPECT_EQ(set.at(0), Trajectory("b", {{3, 10}, {1, 50}, {2, 60}, {2, 70}}));
  EXPECT_EQ(set.at(1), Trajectory("c", {{4, 10}}));
  EXPECT_EQ(set.at(2), Trajectory("a", {{0, 60}}));
}

TEST(TrajectorySetTest, InvalidTrajectoriesOnRunningExample) {
  TransitionGraph g = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  // Table 2: only the first trajectory is valid.
  EXPECT_EQ(set.InvalidTrajectories(g), (std::vector<TrajIndex>{1, 2}));
}

TEST(TrajectorySetTest, BuildIdIndex) {
  TrajectorySet set = MakeTable2Trajectories();
  auto index = set.BuildIdIndex();
  EXPECT_EQ(index.at("GL21348"), 0u);
  EXPECT_EQ(index.at("GL03245"), 1u);
  EXPECT_EQ(index.at("GL83248"), 2u);
}

// Records() flattens trajectory by trajectory, each in time order, and
// FromRecords of the result rebuilds the same set.
TEST(TrajectorySetTest, RecordsIsTheInverseOfFromRecords) {
  std::vector<TrackingRecord> shuffled = MakeTable1Records();
  shuffled.push_back({"aaa", 1, 100});
  shuffled.push_back({"bbb", 0, 100});
  shuffled.push_back({"aaa", 2, 40});
  std::reverse(shuffled.begin(), shuffled.end());
  for (const TrajectorySet& set :
       {MakeTable2Trajectories(), TrajectorySet::FromRecords(shuffled),
        TrajectorySet()}) {
    std::vector<TrackingRecord> records = set.Records();
    ASSERT_EQ(records.size(), set.total_records());
    size_t next = 0;
    for (const Trajectory& t : set.trajectories()) {
      for (const TrajectoryPoint& p : t.points()) {
        EXPECT_EQ(records[next++], (TrackingRecord{t.id(), p.loc, p.ts}));
      }
    }
    EXPECT_EQ(TrajectorySet::FromRecords(records).trajectories(),
              set.trajectories());
  }
}

TEST(TrajectorySetTest, EmptySet) {
  TrajectorySet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_records(), 0u);
  TransitionGraph g = MakePaperExampleGraph();
  EXPECT_TRUE(set.InvalidTrajectories(g).empty());
}

// ------------------------------------------------------------------ Merge

TEST(MergeTest, ChronologicalOrderAcrossSources) {
  Trajectory a("a", {{0, 10}, {2, 30}});
  Trajectory b("b", {{1, 20}, {3, 40}});
  auto merged = MergeChronological(a, b);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].ts, 10);
  EXPECT_EQ(merged[1].ts, 20);
  EXPECT_EQ(merged[2].ts, 30);
  EXPECT_EQ(merged[3].ts, 40);
  EXPECT_EQ(merged[0].source, 0u);
  EXPECT_EQ(merged[1].source, 1u);
}

TEST(MergeTest, TieBreaksAreDeterministic) {
  Trajectory a("a", {{1, 10}});
  Trajectory b("b", {{0, 10}});
  auto m1 = MergeChronological(a, b);
  auto m2 = MergeChronological(a, b);
  ASSERT_EQ(m1.size(), 2u);
  EXPECT_EQ(m1[0].loc, m2[0].loc);
  EXPECT_EQ(m1[0].loc, 0u);  // location breaks the timestamp tie
}

TEST(MergeTest, JoinRewritesIdAndMerges) {
  TrajectorySet set = MakeTable2Trajectories();
  const Trajectory* group[] = {&set.at(1), &set.at(2)};
  Trajectory joined = Join(group, "GL83248");
  EXPECT_EQ(joined.id(), "GL83248");
  ASSERT_EQ(joined.size(), 3u);
  // C -> D -> E, the repaired trajectory of Example 1.4.
  EXPECT_EQ(joined.LocationSequence(), (std::vector<LocationId>{2, 3, 4}));
  TransitionGraph g = MakePaperExampleGraph();
  EXPECT_TRUE(joined.IsValid(g));
}

TEST(MergeTest, JoinPreservesRecordCount) {
  TrajectorySet set = MakeTable2Trajectories();
  const Trajectory* group[] = {&set.at(0), &set.at(1), &set.at(2)};
  Trajectory joined = Join(group, "X");
  EXPECT_EQ(joined.size(), set.total_records());
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, RoundTrip) {
  TransitionGraph g = MakePaperExampleGraph();
  auto records = MakeTable1Records();
  std::ostringstream out;
  ASSERT_TRUE(WriteRecordsCsv(out, g, records).ok());
  std::istringstream in(out.str());
  auto read = ReadRecordsCsv(in, g);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records);
}

TEST(CsvTest, ReadSkipsHeaderAndBlankLines) {
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in("id,loc,ts\n\nGL1,A,100\n  \nGL2,B,200\n");
  auto read = ReadRecordsCsv(in, g);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0].id, "GL1");
  EXPECT_EQ((*read)[0].loc, 0u);
  EXPECT_EQ((*read)[1].ts, 200);
}

TEST(CsvTest, ReadTrimsFieldWhitespace) {
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in(" GL1 , A , 100 \n");
  auto read = ReadRecordsCsv(in, g);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0].id, "GL1");
  EXPECT_EQ((*read)[0].loc, 0u);
  EXPECT_EQ((*read)[0].ts, 100);
}

TEST(CsvTest, ReadRejectsWrongFieldCount) {
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in("GL1,A\n");
  auto read = ReadRecordsCsv(in, g);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(CsvTest, ReadRejectsUnknownLocation) {
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in("GL1,Z,100\n");
  auto read = ReadRecordsCsv(in, g);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, ReadRejectsBadTimestamp) {
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in("GL1,A,notanumber\n");
  auto read = ReadRecordsCsv(in, g);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(CsvTest, ReadRejectsEmptyId) {
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in(",A,100\n");
  auto read = ReadRecordsCsv(in, g);
  EXPECT_FALSE(read.ok());
}

TEST(CsvTest, WriteRejectsUnknownLocationId) {
  TransitionGraph g = MakePaperExampleGraph();
  std::ostringstream out;
  std::vector<TrackingRecord> records = {{"GL1", 99, 100}};
  EXPECT_FALSE(WriteRecordsCsv(out, g, records).ok());
}

TEST(CsvTest, FileRoundTrip) {
  TransitionGraph g = MakePaperExampleGraph();
  auto records = MakeTable1Records();
  std::string path = ::testing::TempDir() + "/idrepair_csv_test.csv";
  ASSERT_TRUE(WriteRecordsCsvFile(path, g, records).ok());
  auto read = ReadRecordsCsvFile(path, g);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records);
}

TEST(CsvTest, HandlesCrlfLineEndings) {
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in("id,loc,ts\r\nGL1,A,100\r\nGL2,B,200\r\n");
  auto read = ReadRecordsCsv(in, g);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[1].id, "GL2");
  EXPECT_EQ((*read)[1].ts, 200);
}

TEST(CsvTest, NegativeTimestampsAreAccepted) {
  // Timestamps are arbitrary-epoch offsets; negatives are legal.
  TransitionGraph g = MakePaperExampleGraph();
  std::istringstream in("GL1,A,-50\n");
  auto read = ReadRecordsCsv(in, g);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0].ts, -50);
}

TEST(CsvTest, MissingFileIsIoError) {
  TransitionGraph g = MakePaperExampleGraph();
  auto read = ReadRecordsCsvFile("/nonexistent/path.csv", g);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(RecordTest, RecordChronoLessOrdersByTimestampFirst) {
  TrackingRecord a{"z", 5, 10};
  TrackingRecord b{"a", 0, 20};
  EXPECT_TRUE(RecordChronoLess(a, b));
  EXPECT_FALSE(RecordChronoLess(b, a));
  TrackingRecord c{"a", 0, 10};
  EXPECT_TRUE(RecordChronoLess(c, a));  // ties by location
}

}  // namespace
}  // namespace idrepair

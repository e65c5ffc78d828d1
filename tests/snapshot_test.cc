// Snapshot format robustness: byte-identity of save -> load -> save across
// graph shapes, and clean rejection of every corruption class (truncation,
// bad magic, wrong version, CRC mismatch, trailing bytes, cross-section
// inconsistency). A snapshot loader that crashes on a bad file would turn a
// torn disk write into a daemon that can never start again.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "fault/failpoint.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"
#include "server/registry.h"
#include "server/snapshot.h"
#include "test_util.h"

namespace idrepair {
namespace server {
namespace {

namespace fs = std::filesystem;

Result<BundlePtr> MakePaperBundle() {
  return MakeBundle("paper", 3, MakePaperExampleGraph(),
                    testutil::RunningExampleOptions(),
                    testutil::MakeTable1Records());
}

/// Patches the header's CRC and payload-size fields to match the (possibly
/// tampered) payload, so tests can corrupt *content* without tripping the
/// cheaper CRC check first.
void RestampHeader(std::string* bytes) {
  ASSERT_GE(bytes->size(), kSnapshotHeaderBytes);
  uint64_t payload_size = bytes->size() - kSnapshotHeaderBytes;
  uint32_t crc =
      Crc32(bytes->data() + kSnapshotHeaderBytes, payload_size);
  std::memcpy(bytes->data() + 8, &payload_size, sizeof(payload_size));
  std::memcpy(bytes->data() + 16, &crc, sizeof(crc));
}

TEST(SnapshotTest, SaveLoadSaveIsByteIdenticalAcrossShapes) {
  struct Shape {
    const char* name;
    TransitionGraph graph;
    std::vector<TrackingRecord> corpus;
  };
  auto synthetic_corpus = [](const TransitionGraph& graph, uint64_t seed) {
    SyntheticConfig config;
    config.num_trajectories = 40;
    config.record_error_rate = 0.25;
    config.max_path_len = 20;  // the chain shape's only valid path is long
    config.seed = seed;
    auto dataset = GenerateSyntheticDataset(graph, config);
    EXPECT_TRUE(dataset.ok()) << dataset.status();
    if (!dataset.ok()) return std::vector<TrackingRecord>{};
    return dataset->ObservedRecords();
  };
  std::vector<Shape> shapes;
  shapes.push_back({"paper+corpus", MakePaperExampleGraph(),
                    testutil::MakeTable1Records()});
  shapes.push_back({"paper graph-only", MakePaperExampleGraph(), {}});
  shapes.push_back({"chain", MakeChainGraph(17),
                    synthetic_corpus(MakeChainGraph(17), 7)});
  shapes.push_back({"grid", MakeGridNetwork(4, 5),
                    synthetic_corpus(MakeGridNetwork(4, 5), 11)});
  shapes.push_back({"real-like", MakeRealLikeGraph(),
                    synthetic_corpus(MakeRealLikeGraph(), 13)});

  for (Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    auto bundle = MakeBundle("shape", 2, std::move(shape.graph),
                             testutil::RunningExampleOptions(),
                             std::move(shape.corpus));
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    std::string first = EncodeSnapshot(**bundle);
    auto loaded = DecodeSnapshot(first);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    std::string second = EncodeSnapshot(**loaded);
    EXPECT_EQ(first, second);
    // And once more through the decoded-of-decoded bundle: a fixed point,
    // not merely a 2-cycle.
    auto reloaded = DecodeSnapshot(second);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_EQ(EncodeSnapshot(**reloaded), first);
  }
}

TEST(SnapshotTest, DecodedBundlePreservesEveryField) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  auto loaded = DecodeSnapshot(EncodeSnapshot(**bundle));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const GraphBundle& b = **loaded;
  EXPECT_EQ(b.name, "paper");
  EXPECT_EQ(b.version, 3u);
  EXPECT_EQ(b.graph.num_locations(), (*bundle)->graph.num_locations());
  EXPECT_EQ(b.graph.num_edges(), (*bundle)->graph.num_edges());
  EXPECT_EQ(b.graph.EdgeMatrix(), (*bundle)->graph.EdgeMatrix());
  EXPECT_EQ(b.options.theta, 5u);
  EXPECT_EQ(b.options.eta, 1200);
  ASSERT_NE(b.corpus, nullptr);
  EXPECT_EQ(b.corpus->total_records(), 7u);
}

TEST(SnapshotTest, LoadedCorpusRepairsIdenticallyToTheOriginal) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  auto loaded = DecodeSnapshot(EncodeSnapshot(**bundle));
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  IdRepairer loaded_engine((*loaded)->graph, (*loaded)->options);
  auto from_loaded = loaded_engine.Repair(*(*loaded)->corpus);
  ASSERT_TRUE(from_loaded.ok()) << from_loaded.status();

  IdRepairer original_engine((*bundle)->graph, (*bundle)->options);
  auto original = original_engine.Repair(*(*bundle)->corpus);
  ASSERT_TRUE(original.ok()) << original.status();

  EXPECT_EQ(from_loaded->repaired.trajectories(),
            original->repaired.trajectories());
  EXPECT_EQ(from_loaded->rewrites, original->rewrites);
  EXPECT_EQ(from_loaded->selected, original->selected);
}

TEST(SnapshotTest, FileRoundTripMatchesInMemoryBytes) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  fs::path path = fs::temp_directory_path() / "idrepair_snapshot_rt.idrs";
  ASSERT_TRUE(WriteSnapshotFile(path.string(), **bundle).ok());
  auto loaded = ReadSnapshotFile(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::ifstream in(path, std::ios::binary);
  std::string on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, EncodeSnapshot(**loaded));
  std::remove(path.string().c_str());
}

// A save that dies after writing its temp file (the io.snapshot.save
// failpoint sits between the temp write and the rename) must leave the
// previous snapshot in place and loadable; LoadDir skips the stray temp.
TEST(SnapshotTest, FailedSaveAfterTempWriteKeepsOldSnapshotLoadable) {
  fs::path dir = fs::temp_directory_path() / "idrepair_snapshot_crash";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::path path = dir / "paper.idrs";
  auto old_bundle = MakePaperBundle();
  ASSERT_TRUE(old_bundle.ok()) << old_bundle.status();
  ASSERT_TRUE(WriteSnapshotFile(path.string(), **old_bundle).ok());

  auto new_bundle = MakeBundle("paper", 4, MakePaperExampleGraph(),
                               testutil::RunningExampleOptions(), {});
  ASSERT_TRUE(new_bundle.ok()) << new_bundle.status();
  fault::FaultSpec spec;
  spec.fire_on_hit = 1;
  spec.code = StatusCode::kIoError;
  ASSERT_TRUE(
      fault::FailPointRegistry::Global().Arm("io.snapshot.save", spec).ok());
  Status failed = WriteSnapshotFile(path.string(), **new_bundle);
  fault::FailPointRegistry::Global().DisarmAll();
  ASSERT_EQ(failed.code(), StatusCode::kIoError) << failed;
  EXPECT_TRUE(fs::exists(path.string() + kSnapshotTempSuffix));

  auto loaded = ReadSnapshotFile(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(EncodeSnapshot(**loaded), EncodeSnapshot(**old_bundle));
  GraphRegistry registry;
  auto count = registry.LoadDir(dir.string());
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 1u);
  auto acquired = registry.Acquire("paper");
  ASSERT_TRUE(acquired.ok()) << acquired.status();
  EXPECT_EQ((*acquired)->version, 3u);

  // The next save replaces both the live file and the stray temp.
  ASSERT_TRUE(WriteSnapshotFile(path.string(), **new_bundle).ok());
  EXPECT_FALSE(fs::exists(path.string() + kSnapshotTempSuffix));
  loaded = ReadSnapshotFile(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->version, 4u);
  fs::remove_all(dir);
}

TEST(SnapshotTest, TruncationAtEveryPrefixIsRejectedCleanly) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  std::string bytes = EncodeSnapshot(**bundle);
  // Every prefix must fail with a clean Status — never crash, never
  // succeed. Covers header truncation, section-boundary truncation, and
  // mid-section truncation in one sweep (the file is small).
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DecodeSnapshot(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
  EXPECT_TRUE(DecodeSnapshot(bytes).ok());
}

TEST(SnapshotTest, BadMagicIsRejected) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  std::string bytes = EncodeSnapshot(**bundle);
  bytes[0] ^= 0x01;
  auto r = DecodeSnapshot(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos)
      << r.status();
}

TEST(SnapshotTest, WrongVersionIsRejected) {
  // Version 2 dropped version 1's LIG section; a v1 file is refused by the
  // version check, not half-read.
  static_assert(kSnapshotVersion == 2);
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  for (uint32_t version : {kSnapshotVersion - 1, kSnapshotVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string bytes = EncodeSnapshot(**bundle);
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    auto r = DecodeSnapshot(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_NE(r.status().message().find("version"), std::string::npos)
        << r.status();
  }
}

TEST(SnapshotTest, CrcMismatchIsRejected) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  std::string bytes = EncodeSnapshot(**bundle);
  // Flip one payload byte without restamping the header.
  bytes[kSnapshotHeaderBytes + bytes.size() / 2] ^= 0x40;
  auto r = DecodeSnapshot(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status();
}

TEST(SnapshotTest, TrailingGarbageIsRejected) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  std::string bytes = EncodeSnapshot(**bundle);
  bytes += "extra";
  auto r = DecodeSnapshot(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

/// Locates section `tag`'s body inside a whole snapshot byte string.
/// Returns {offset, len} into `bytes`, or {0, 0} when absent.
std::pair<size_t, size_t> FindSection(const std::string& bytes,
                                      uint32_t tag) {
  size_t pos = kSnapshotHeaderBytes;
  while (pos + 12 <= bytes.size()) {
    uint32_t t;
    uint64_t len;
    std::memcpy(&t, bytes.data() + pos, sizeof(t));
    std::memcpy(&len, bytes.data() + pos + 4, sizeof(len));
    pos += 12;
    if (t == tag) return {pos, static_cast<size_t>(len)};
    pos += static_cast<size_t>(len);
  }
  return {0, 0};
}

TEST(SnapshotTest, MatrixTamperSurvivingCrcIsStillRejected) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  std::string bytes = EncodeSnapshot(**bundle);
  // An editor that flips a matrix bit AND fixes the CRC still fails the
  // cross-check against the matrix rebuilt from the edge section. Flip one
  // bit inside every word of section 4's packed bitset (the words sit at
  // the end of the section body, after the u64 bit/word counts).
  auto [matrix_off, matrix_len] = FindSection(bytes, 4);
  ASSERT_GT(matrix_len, 16u) << "matrix section not found";
  for (size_t i = matrix_off + 16; i < matrix_off + matrix_len; ++i) {
    std::string tampered = bytes;
    tampered[i] ^= 0x04;
    RestampHeader(&tampered);
    auto r = DecodeSnapshot(tampered);
    ASSERT_FALSE(r.ok()) << "matrix byte " << (i - matrix_off)
                         << " tamper decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_NE(r.status().message().find("matrix"), std::string::npos)
        << r.status();
  }
}

TEST(SnapshotTest, EveryPayloadByteFlipIsRejectedOrDecodesToAFixedPoint) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  std::string bytes = EncodeSnapshot(**bundle);
  // Flip each payload byte in turn (restamping the CRC so content checks,
  // not the checksum, do the work). Most flips must be rejected outright;
  // a flip that survives (e.g. a changed timestamp, or a non-canonical
  // bool byte) must decode to a bundle whose own encoding is a decode
  // fixed point — corruption may be semantically invisible, but it must
  // never produce a bundle the loader itself cannot round-trip.
  size_t rejected = 0;
  size_t accepted = 0;
  for (size_t i = kSnapshotHeaderBytes; i < bytes.size(); ++i) {
    std::string tampered = bytes;
    tampered[i] ^= 0x04;
    RestampHeader(&tampered);
    auto r = DecodeSnapshot(tampered);
    if (!r.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    std::string normalized = EncodeSnapshot(**r);
    auto r2 = DecodeSnapshot(normalized);
    ASSERT_TRUE(r2.ok()) << "byte " << i << ": " << r2.status();
    EXPECT_EQ(EncodeSnapshot(**r2), normalized) << "byte " << i;
  }
  // The structured sections make the vast majority of flips detectable.
  EXPECT_GT(rejected, accepted);
}

TEST(SnapshotTest, UnknownSectionTagIsRejected) {
  auto bundle = MakePaperBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  std::string bytes = EncodeSnapshot(**bundle);
  ASSERT_NE(FindSection(bytes, 6).second, 0u) << "corpus section missing";
  // Tag 7 held version 1's LIG arena; in version 2 it is unknown. Append
  // one after the corpus section, in ascending order, with a valid CRC.
  uint32_t tag = 7;
  uint64_t len = 4;
  bytes.append(reinterpret_cast<const char*>(&tag), sizeof(tag));
  bytes.append(reinterpret_cast<const char*>(&len), sizeof(len));
  bytes.append(4, '\0');
  RestampHeader(&bytes);
  auto r = DecodeSnapshot(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("unknown section tag 7"),
            std::string::npos)
      << r.status();
}

TEST(SnapshotTest, MakeBundleValidatesInputs) {
  EXPECT_FALSE(MakeBundle("", 1, MakePaperExampleGraph(),
                          testutil::RunningExampleOptions(), {})
                   .ok());
  EXPECT_FALSE(MakeBundle("x", 0, MakePaperExampleGraph(),
                          testutil::RunningExampleOptions(), {})
                   .ok());
  // Corpus record referencing a location the graph does not have.
  std::vector<TrackingRecord> bad = {{"id", 999, 0}};
  EXPECT_FALSE(MakeBundle("x", 1, MakePaperExampleGraph(),
                          testutil::RunningExampleOptions(), std::move(bad))
                   .ok());
}

}  // namespace
}  // namespace server
}  // namespace idrepair

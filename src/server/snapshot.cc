#include "server/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "fault/failpoint.h"

namespace idrepair {
namespace server {

namespace {

// Section tags, strictly ascending in the payload.
constexpr uint32_t kSecMeta = 1;
constexpr uint32_t kSecVertices = 2;
constexpr uint32_t kSecEdges = 3;
constexpr uint32_t kSecMatrix = 4;
constexpr uint32_t kSecOptions = 5;
constexpr uint32_t kSecCorpus = 6;

void AppendSection(std::string* payload, uint32_t tag,
                   const std::string& body) {
  BinaryWriter w(payload);
  w.U32(tag);
  w.U64(body.size());
  w.Raw(body.data(), body.size());
}

}  // namespace

GraphBundle::GraphBundle(std::string name, uint64_t version,
                         TransitionGraph graph, RepairOptions options)
    : name(std::move(name)),
      version(version),
      graph(std::move(graph)),
      options(std::move(options)),
      evaluator(this->graph, this->options.theta, this->options.eta) {}

std::vector<TrackingRecord> GraphBundle::CorpusRecords() const {
  return corpus == nullptr ? std::vector<TrackingRecord>()
                          : corpus->Records();
}

Result<BundlePtr> MakeBundle(std::string name, uint64_t version,
                             TransitionGraph graph, RepairOptions options,
                             std::vector<TrackingRecord> corpus_records) {
  if (name.empty()) {
    return Status::InvalidArgument("bundle name must be non-empty");
  }
  if (version == 0) {
    return Status::InvalidArgument("bundle version must be >= 1");
  }
  IDREPAIR_RETURN_NOT_OK(graph.Validate());
  IDREPAIR_RETURN_NOT_OK(options.Validate());
  for (const TrackingRecord& rec : corpus_records) {
    if (rec.loc >= graph.num_locations()) {
      return Status::InvalidArgument(
          "corpus record references unknown location id " +
          std::to_string(rec.loc));
    }
  }
  // Pointers and process-local knobs never live in a bundle: bundles are
  // shared across connections and snapshots.
  options.similarity = nullptr;
  auto bundle = std::make_shared<GraphBundle>(std::move(name), version,
                                              std::move(graph), options);
  if (!corpus_records.empty()) {
    bundle->corpus = std::make_unique<TrajectorySet>(
        TrajectorySet::FromRecords(corpus_records));
  }
  return BundlePtr(std::move(bundle));
}

void EncodeRepairOptions(BinaryWriter* w, const RepairOptions& options) {
  w->U64(options.theta);
  w->I64(options.eta);
  w->U64(options.zeta);
  w->F64(options.lambda);
  w->I64(options.time_bin);
  w->U8(options.use_lig ? 1 : 0);
  w->U8(options.use_mcp_pruning ? 1 : 0);
  w->U8(static_cast<uint8_t>(options.selection));
  w->U32(options.rarity_base_offset);
  w->U8(static_cast<uint8_t>(options.rarity_aggregation));
  w->I64(options.deadline_ms);
}

void DecodeRepairOptions(BinaryReader* r, RepairOptions* options) {
  options->theta = static_cast<size_t>(r->U64());
  options->eta = r->I64();
  options->zeta = static_cast<size_t>(r->U64());
  options->lambda = r->F64();
  options->time_bin = r->I64();
  options->use_lig = r->U8() != 0;
  options->use_mcp_pruning = r->U8() != 0;
  uint8_t selection = r->U8();
  options->rarity_base_offset = r->U32();
  uint8_t rarity = r->U8();
  options->deadline_ms = r->I64();
  if (!r->ok()) return;
  if (selection > static_cast<uint8_t>(SelectionAlgorithm::kExact)) {
    r->Fail("options: unknown selection algorithm " +
            std::to_string(selection));
    return;
  }
  if (rarity > static_cast<uint8_t>(RarityAggregation::kMax)) {
    r->Fail("options: unknown rarity aggregation " + std::to_string(rarity));
    return;
  }
  options->selection = static_cast<SelectionAlgorithm>(selection);
  options->rarity_aggregation = static_cast<RarityAggregation>(rarity);
}

void EncodeRecords(BinaryWriter* w, const std::vector<TrackingRecord>& recs) {
  w->U64(recs.size());
  for (const TrackingRecord& rec : recs) {
    w->Str(rec.id);
    w->U32(rec.loc);
    w->I64(rec.ts);
  }
}

std::vector<TrackingRecord> DecodeRecords(BinaryReader* r) {
  std::vector<TrackingRecord> records;
  uint64_t count = r->U64();
  // A record is at least 16 bytes (4 id-length + 4 loc + 8 ts), so any
  // legitimate count is bounded by the bytes actually present.
  if (!r->ok() || count > r->remaining() / 16) {
    r->Fail("records: count " + std::to_string(count) +
            " exceeds buffer capacity");
    return records;
  }
  records.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count && r->ok(); ++i) {
    TrackingRecord rec;
    rec.id = r->Str();
    rec.loc = r->U32();
    rec.ts = r->I64();
    records.push_back(std::move(rec));
  }
  return records;
}

std::string EncodeSnapshot(const GraphBundle& bundle) {
  std::string payload;
  const TransitionGraph& graph = bundle.graph;

  {
    std::string body;
    BinaryWriter w(&body);
    w.Str(bundle.name);
    w.U64(bundle.version);
    AppendSection(&payload, kSecMeta, body);
  }
  {
    std::string body;
    BinaryWriter w(&body);
    size_t n = graph.num_locations();
    w.U64(n);
    for (size_t i = 0; i < n; ++i) {
      w.Str(graph.LocationName(static_cast<LocationId>(i)));
    }
    w.U64(graph.entrances().size());
    for (LocationId loc : graph.entrances()) w.U32(loc);
    w.U64(graph.exits().size());
    for (LocationId loc : graph.exits()) w.U32(loc);
    AppendSection(&payload, kSecVertices, body);
  }
  {
    // Grouped by source in out-neighbor insertion order — the same edge
    // ordering convention as the text format, so rebuilding preserves
    // every per-vertex adjacency order and re-encoding is byte-identical.
    std::string body;
    BinaryWriter w(&body);
    w.U64(graph.num_edges());
    for (size_t from = 0; from < graph.num_locations(); ++from) {
      for (LocationId to : graph.OutNeighbors(static_cast<LocationId>(from))) {
        w.U32(static_cast<uint32_t>(from));
        w.U32(to);
      }
    }
    AppendSection(&payload, kSecEdges, body);
  }
  {
    std::string body;
    BinaryWriter w(&body);
    DynamicBitset matrix = graph.EdgeMatrix();
    w.U64(matrix.size());
    w.U64(matrix.words().size());
    for (uint64_t word : matrix.words()) w.U64(word);
    AppendSection(&payload, kSecMatrix, body);
  }
  {
    std::string body;
    BinaryWriter w(&body);
    EncodeRepairOptions(&w, bundle.options);
    AppendSection(&payload, kSecOptions, body);
  }
  if (bundle.corpus != nullptr) {
    std::string body;
    BinaryWriter w(&body);
    EncodeRecords(&w, bundle.CorpusRecords());
    AppendSection(&payload, kSecCorpus, body);
  }

  std::string out;
  BinaryWriter header(&out);
  header.U32(kSnapshotMagic);
  header.U32(kSnapshotVersion);
  header.U64(payload.size());
  header.U32(Crc32(payload));
  header.U32(0);  // reserved
  out.append(payload);
  return out;
}

Result<BundlePtr> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    return Status::Corruption("snapshot truncated: " +
                              std::to_string(bytes.size()) +
                              " bytes is smaller than the header");
  }
  BinaryReader header(bytes.data(), kSnapshotHeaderBytes);
  uint32_t magic = header.U32();
  uint32_t version = header.U32();
  uint64_t payload_size = header.U64();
  uint32_t payload_crc = header.U32();
  header.U32();  // reserved
  if (magic != kSnapshotMagic) {
    return Status::Corruption("snapshot: bad magic");
  }
  if (version != kSnapshotVersion) {
    return Status::Corruption("snapshot: unsupported version " +
                              std::to_string(version));
  }
  std::string_view payload = bytes.substr(kSnapshotHeaderBytes);
  if (payload_size != payload.size()) {
    return Status::Corruption(
        payload.size() < payload_size
            ? "snapshot truncated: payload shorter than header declares"
            : "snapshot: trailing garbage after declared payload");
  }
  if (Crc32(payload) != payload_crc) {
    return Status::Corruption("snapshot: payload checksum mismatch");
  }

  // Section scan.
  std::string name;
  uint64_t bundle_version = 0;
  std::vector<std::string> location_names;
  std::vector<LocationId> entrances, exits;
  std::vector<std::pair<LocationId, LocationId>> edges;
  uint64_t matrix_bits = 0;
  std::vector<uint64_t> matrix_words;
  RepairOptions options;
  std::vector<TrackingRecord> corpus_records;

  BinaryReader r(payload);
  uint32_t last_tag = 0;
  uint32_t seen_mask = 0;
  while (r.ok() && r.remaining() > 0) {
    uint32_t tag = r.U32();
    uint64_t len = r.U64();
    if (!r.ok()) break;
    if (tag <= last_tag) {
      return Status::Corruption("snapshot: section tags out of order");
    }
    last_tag = tag;
    if (tag > kSecCorpus) {
      return Status::Corruption("snapshot: unknown section tag " +
                                std::to_string(tag));
    }
    if (!r.Need(static_cast<size_t>(len))) break;
    BinaryReader body(payload.data() + r.position(),
                      static_cast<size_t>(len));
    r.Skip(static_cast<size_t>(len));
    seen_mask |= 1u << tag;
    switch (tag) {
      case kSecMeta:
        name = body.Str();
        bundle_version = body.U64();
        break;
      case kSecVertices: {
        uint64_t n = body.U64();
        if (!body.ok() || n > body.remaining() / 4) {
          return Status::Corruption("snapshot: vertex count overflows body");
        }
        location_names.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n && body.ok(); ++i) {
          location_names.push_back(body.Str());
        }
        for (auto* side : {&entrances, &exits}) {
          uint64_t count = body.U64();
          if (!body.ok() || count > body.remaining() / 4) {
            return Status::Corruption(
                "snapshot: entrance/exit count overflows body");
          }
          side->reserve(static_cast<size_t>(count));
          for (uint64_t i = 0; i < count && body.ok(); ++i) {
            side->push_back(body.U32());
          }
        }
        break;
      }
      case kSecEdges: {
        uint64_t m = body.U64();
        if (!body.ok() || m > body.remaining() / 8) {
          return Status::Corruption("snapshot: edge count overflows body");
        }
        edges.reserve(static_cast<size_t>(m));
        for (uint64_t i = 0; i < m && body.ok(); ++i) {
          LocationId from = body.U32();
          LocationId to = body.U32();
          edges.emplace_back(from, to);
        }
        break;
      }
      case kSecMatrix: {
        matrix_bits = body.U64();
        uint64_t num_words = body.U64();
        if (!body.ok() || num_words > body.remaining() / 8) {
          return Status::Corruption(
              "snapshot: matrix word count overflows body");
        }
        matrix_words.reserve(static_cast<size_t>(num_words));
        for (uint64_t i = 0; i < num_words && body.ok(); ++i) {
          matrix_words.push_back(body.U64());
        }
        break;
      }
      case kSecOptions:
        DecodeRepairOptions(&body, &options);
        break;
      case kSecCorpus:
        corpus_records = DecodeRecords(&body);
        break;
      default:
        break;  // unreachable: tag range checked above
    }
    IDREPAIR_RETURN_NOT_OK(body.ExpectDone());
  }
  IDREPAIR_RETURN_NOT_OK(r.status());

  constexpr uint32_t kRequired = (1u << kSecMeta) | (1u << kSecVertices) |
                                 (1u << kSecEdges) | (1u << kSecMatrix) |
                                 (1u << kSecOptions);
  if ((seen_mask & kRequired) != kRequired) {
    return Status::Corruption("snapshot: missing required section");
  }

  // Rebuild the graph from the vertex table and edge list.
  TransitionGraph graph;
  for (size_t i = 0; i < location_names.size(); ++i) {
    LocationId id = graph.AddLocation(location_names[i]);
    if (id != static_cast<LocationId>(i)) {
      return Status::Corruption("snapshot: duplicate location name '" +
                                location_names[i] + "'");
    }
  }
  for (const auto& [from, to] : edges) {
    if (from >= graph.num_locations() || to >= graph.num_locations()) {
      return Status::Corruption("snapshot: edge references unknown location");
    }
    IDREPAIR_RETURN_NOT_OK(graph.AddEdge(from, to));
  }
  if (graph.num_edges() != edges.size()) {
    return Status::Corruption("snapshot: duplicate edges in edge section");
  }
  for (LocationId loc : entrances) {
    if (loc >= graph.num_locations()) {
      return Status::Corruption("snapshot: entrance references unknown location");
    }
    IDREPAIR_RETURN_NOT_OK(graph.MarkEntrance(loc));
  }
  for (LocationId loc : exits) {
    if (loc >= graph.num_locations()) {
      return Status::Corruption("snapshot: exit references unknown location");
    }
    IDREPAIR_RETURN_NOT_OK(graph.MarkExit(loc));
  }

  // Cross-check the stored edge matrix against the one the rebuilt graph
  // maintains: catches payload tampering that kept the CRC consistent.
  DynamicBitset matrix = graph.EdgeMatrix();
  if (matrix.size() != matrix_bits || matrix.words() != matrix_words) {
    return Status::Corruption(
        "snapshot: edge matrix cross-check failed (matrix section disagrees "
        "with edge list)");
  }

  auto assembled = MakeBundle(std::move(name), bundle_version,
                              std::move(graph), options,
                              std::move(corpus_records));
  if (!assembled.ok()) {
    return Status::Corruption("snapshot: " + assembled.status().message());
  }
  return assembled;
}

namespace {

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

/// Writes `bytes` to a fresh file at `path` and fsyncs it. On failure the
/// partial file is removed.
Status WriteDurably(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoError("cannot open", path);
  Status status;
  for (size_t done = 0; done < bytes.size() && status.ok();) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      status = ErrnoError("short write to", path);
    } else {
      done += static_cast<size_t>(n);
    }
  }
  if (status.ok() && ::fsync(fd) != 0) {
    status = ErrnoError("cannot fsync", path);
  }
  if (::close(fd) != 0 && status.ok()) {
    status = ErrnoError("cannot close", path);
  }
  if (!status.ok()) std::remove(path.c_str());
  return status;
}

/// Makes a rename inside `dir` durable.
Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open directory", dir);
  Status status;
  if (::fsync(fd) != 0) status = ErrnoError("cannot fsync directory", dir);
  ::close(fd);
  return status;
}

}  // namespace

Status WriteSnapshotFile(const std::string& path, const GraphBundle& bundle) {
  const std::string tmp = path + kSnapshotTempSuffix;
  IDREPAIR_RETURN_NOT_OK(WriteDurably(tmp, EncodeSnapshot(bundle)));
  // A fault here models a crash between the temp write and the rename: the
  // temp file stays behind and the live snapshot is untouched.
  IDREPAIR_FAULT_INJECT("io.snapshot.save");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = ErrnoError("cannot rename '" + tmp + "' to", path);
    std::remove(tmp.c_str());
    return status;
  }
  std::string dir = std::filesystem::path(path).parent_path().string();
  return SyncDirectory(dir.empty() ? "." : dir);
}

Result<BundlePtr> ReadSnapshotFile(const std::string& path) {
  IDREPAIR_FAULT_INJECT("io.snapshot.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IoError("read error on '" + path + "'");
  }
  std::string bytes = std::move(buffer).str();
  auto decoded = DecodeSnapshot(bytes);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  path + ": " + decoded.status().message());
  }
  return decoded;
}

}  // namespace server
}  // namespace idrepair

#include "server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "server/snapshot.h"

namespace idrepair {
namespace server {

namespace {

constexpr int kPollIntervalMs = 50;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Reads exactly `n` bytes, polling so `cancelled` is honored. Returns
/// IoError on EOF or socket error, Cancelled when the predicate trips.
Status ReadFull(int fd, char* buf, size_t n,
                const std::function<bool()>& cancelled) {
  size_t got = 0;
  while (got < n) {
    if (cancelled && cancelled()) {
      return Status::Cancelled("read abandoned: shutdown in progress");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("poll"));
    }
    if (ready == 0) continue;  // timeout tick: recheck cancellation
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("recv"));
    }
    if (r == 0) {
      return Status::IoError("connection closed by peer");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFull(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("send"));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, MsgType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds the 64 MiB bound");
  }
  std::string header;
  BinaryWriter w(&header);
  w.U32(kFrameMagic);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U8(static_cast<uint8_t>(type));
  IDREPAIR_RETURN_NOT_OK(WriteFull(fd, header.data(), header.size()));
  return WriteFull(fd, payload.data(), payload.size());
}

Result<Frame> ReadFrame(int fd, const std::function<bool()>& cancelled) {
  char header[kFrameHeaderBytes];
  IDREPAIR_RETURN_NOT_OK(ReadFull(fd, header, sizeof(header), cancelled));
  BinaryReader r(header, sizeof(header));
  uint32_t magic = r.U32();
  uint32_t len = r.U32();
  uint8_t type = r.U8();
  if (magic != kFrameMagic) {
    return Status::Corruption("frame: bad magic");
  }
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame: declared payload exceeds 64 MiB bound");
  }
  if (type < static_cast<uint8_t>(MsgType::kRegisterGraph) ||
      type > static_cast<uint8_t>(MsgType::kShutdown)) {
    return Status::Corruption("frame: unknown message type " +
                              std::to_string(type));
  }
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(len);
  if (len > 0) {
    IDREPAIR_RETURN_NOT_OK(ReadFull(fd, frame.payload.data(), len, cancelled));
  }
  return frame;
}

Result<Address> ParseAddress(const std::string& spec) {
  Address address;
  if (spec.rfind("unix:", 0) == 0) {
    address.is_unix = true;
    address.path = spec.substr(5);
    if (address.path.empty()) {
      return Status::InvalidArgument("unix address needs a socket path");
    }
    if (address.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    return address;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    std::string rest = spec.substr(4);
    std::string port_str = rest;
    size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      address.host = rest.substr(0, colon);
      port_str = rest.substr(colon + 1);
    }
    if (address.host == "localhost") address.host = "127.0.0.1";
    char* end = nullptr;
    long port = std::strtol(port_str.c_str(), &end, 10);
    if (port_str.empty() || end == nullptr || *end != '\0' || port < 0 ||
        port > 65535) {
      return Status::InvalidArgument("bad tcp port in address '" + spec +
                                     "'");
    }
    address.port = static_cast<uint16_t>(port);
    return address;
  }
  return Status::InvalidArgument(
      "address must be 'unix:<path>', 'tcp:<host>:<port>', or 'tcp:<port>'");
}

std::string FormatAddress(const Address& address) {
  if (address.is_unix) return "unix:" + address.path;
  return "tcp:" + address.host + ":" + std::to_string(address.port);
}

Result<int> DialAddress(const Address& address) {
  int fd = -1;
  if (address.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError(Errno("socket(unix)"));
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(),
                 sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      Status st = Status::IoError(Errno("connect " + FormatAddress(address)));
      ::close(fd);
      return st;
    }
    return fd;
  }
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(Errno("socket(tcp)"));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(address.port);
  if (::inet_pton(AF_INET, address.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("tcp host must be a numeric IPv4 address");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    Status st = Status::IoError(Errno("connect " + FormatAddress(address)));
    ::close(fd);
    return st;
  }
  return fd;
}

void EncodeStatus(BinaryWriter* w, const Status& status) {
  w->U32(static_cast<uint32_t>(status.code()));
  w->Str(status.message());
}

Status DecodeStatus(BinaryReader* r) {
  uint32_t code = r->U32();
  std::string message = r->Str();
  if (!r->ok()) return Status::OK();  // the reader carries the real error
  if (code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    r->Fail("status: unknown code " + std::to_string(code));
    return Status::OK();
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

// ---- RegisterGraph ---------------------------------------------------

std::string EncodeRegisterGraphRequest(const RegisterGraphRequest& req) {
  std::string out;
  BinaryWriter w(&out);
  w.Str(req.name);
  w.Str(req.graph_text);
  EncodeRepairOptions(&w, req.options);
  w.U8(req.corpus.empty() ? 0 : 1);
  if (!req.corpus.empty()) EncodeRecords(&w, req.corpus);
  return out;
}

Status DecodeRegisterGraphRequest(std::string_view bytes,
                                  RegisterGraphRequest* req) {
  BinaryReader r(bytes);
  req->name = r.Str();
  req->graph_text = r.Str();
  DecodeRepairOptions(&r, &req->options);
  uint8_t has_corpus = r.U8();
  if (r.ok() && has_corpus > 1) {
    r.Fail("register: bad corpus presence flag");
  }
  if (r.ok() && has_corpus == 1) req->corpus = DecodeRecords(&r);
  return r.ExpectDone();
}

std::string EncodeRegisterGraphReply(const RegisterGraphReply& reply) {
  std::string out;
  BinaryWriter w(&out);
  w.U64(reply.version);
  return out;
}

Status DecodeRegisterGraphReply(BinaryReader* r, RegisterGraphReply* reply) {
  reply->version = r->U64();
  return r->status();
}

// ---- Snapshot --------------------------------------------------------

std::string EncodeSnapshotRequest(const SnapshotRequest& req) {
  std::string out;
  BinaryWriter w(&out);
  w.Str(req.dir);
  return out;
}

Status DecodeSnapshotRequest(std::string_view bytes, SnapshotRequest* req) {
  BinaryReader r(bytes);
  req->dir = r.Str();
  return r.ExpectDone();
}

std::string EncodeSnapshotReply(const SnapshotReply& reply) {
  std::string out;
  BinaryWriter w(&out);
  w.U64(reply.num_saved);
  w.Str(reply.dir);
  return out;
}

Status DecodeSnapshotReply(BinaryReader* r, SnapshotReply* reply) {
  reply->num_saved = r->U64();
  reply->dir = r->Str();
  return r->status();
}

// ---- Repair ----------------------------------------------------------

std::string EncodeRepairRequest(const RepairRequest& req) {
  std::string out;
  BinaryWriter w(&out);
  w.Str(req.name);
  w.I64(req.budget_ms);
  w.U8(req.use_corpus ? 1 : 0);
  w.U32(static_cast<uint32_t>(req.batches.size()));
  for (const auto& batch : req.batches) EncodeRecords(&w, batch);
  return out;
}

Status DecodeRepairRequest(std::string_view bytes, RepairRequest* req) {
  BinaryReader r(bytes);
  req->name = r.Str();
  req->budget_ms = r.I64();
  uint8_t use_corpus = r.U8();
  uint32_t batch_count = r.U32();
  if (r.ok()) {
    if (use_corpus > 1) r.Fail("repair: bad corpus flag");
    if (batch_count > r.remaining() / 8) {
      r.Fail("repair: batch count overflows payload");
    }
  }
  req->use_corpus = use_corpus == 1;
  for (uint32_t i = 0; i < batch_count && r.ok(); ++i) {
    req->batches.push_back(DecodeRecords(&r));
  }
  return r.ExpectDone();
}

std::string EncodeRepairReply(const RepairReply& reply) {
  std::string out;
  BinaryWriter w(&out);
  w.U32(static_cast<uint32_t>(reply.batches.size()));
  for (const BatchReply& batch : reply.batches) {
    EncodeStatus(&w, batch.completion);
    EncodeRecords(&w, batch.repaired);
    w.U64(batch.num_candidates);
    w.U64(batch.num_selected);
    w.U64(batch.num_rewrites);
    w.F64(batch.total_effectiveness);
    w.F64(batch.seconds_total);
  }
  return out;
}

Status DecodeRepairReply(BinaryReader* r, RepairReply* reply) {
  uint32_t count = r->U32();
  if (r->ok() && count > r->remaining() / 8) {
    r->Fail("repair reply: batch count overflows payload");
  }
  for (uint32_t i = 0; i < count && r->ok(); ++i) {
    BatchReply batch;
    batch.completion = DecodeStatus(r);
    batch.repaired = DecodeRecords(r);
    batch.num_candidates = r->U64();
    batch.num_selected = r->U64();
    batch.num_rewrites = r->U64();
    batch.total_effectiveness = r->F64();
    batch.seconds_total = r->F64();
    reply->batches.push_back(std::move(batch));
  }
  return r->status();
}

// ---- Stats -----------------------------------------------------------

std::string EncodeStatsRequest(const StatsRequest& req) {
  std::string out;
  BinaryWriter w(&out);
  w.U8(req.include_prometheus ? 1 : 0);
  return out;
}

Status DecodeStatsRequest(std::string_view bytes, StatsRequest* req) {
  BinaryReader r(bytes);
  uint8_t include = r.U8();
  if (r.ok() && include > 1) r.Fail("stats: bad prometheus flag");
  req->include_prometheus = include == 1;
  return r.ExpectDone();
}

std::string EncodeStatsReply(const StatsReply& reply) {
  std::string out;
  BinaryWriter w(&out);
  w.U32(static_cast<uint32_t>(reply.entries.size()));
  for (const GraphRegistry::EntryInfo& entry : reply.entries) {
    w.Str(entry.name);
    w.U64(entry.version);
    w.U64(entry.num_locations);
    w.U64(entry.num_edges);
    w.U64(entry.corpus_trajectories);
    w.I64(entry.use_count);
  }
  w.U64(reply.admission.admitted);
  w.U64(reply.admission.rejected);
  w.U64(reply.admission.completed);
  w.I64(reply.admission.inflight);
  w.I64(reply.admission.queue_peak);
  w.U64(reply.admission.max_inflight);
  w.Str(reply.prometheus);
  return out;
}

Status DecodeStatsReply(BinaryReader* r, StatsReply* reply) {
  uint32_t count = r->U32();
  if (r->ok() && count > r->remaining() / 4) {
    r->Fail("stats reply: entry count overflows payload");
  }
  for (uint32_t i = 0; i < count && r->ok(); ++i) {
    GraphRegistry::EntryInfo entry;
    entry.name = r->Str();
    entry.version = r->U64();
    entry.num_locations = static_cast<size_t>(r->U64());
    entry.num_edges = static_cast<size_t>(r->U64());
    entry.corpus_trajectories = static_cast<size_t>(r->U64());
    entry.use_count = static_cast<long>(r->I64());
    reply->entries.push_back(std::move(entry));
  }
  reply->admission.admitted = r->U64();
  reply->admission.rejected = r->U64();
  reply->admission.completed = r->U64();
  reply->admission.inflight = r->I64();
  reply->admission.queue_peak = r->I64();
  reply->admission.max_inflight = r->U64();
  reply->prometheus = r->Str();
  return r->status();
}

}  // namespace server
}  // namespace idrepair

#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <tuple>

#include "common/json.h"

namespace idrepair {
namespace obs {

namespace {

std::atomic<uint32_t> g_next_thread_id{0};
thread_local uint32_t tls_thread_id = UINT32_MAX;

std::atomic<uint64_t> g_next_sink_id{1};

/// One-entry cache: the last (sink, buffer) pair this thread recorded
/// through. Sink ids are never reused, so a stale entry can only miss.
struct TlsSinkCache {
  uint64_t sink_id = 0;
  void* buffer = nullptr;
};
thread_local TlsSinkCache tls_sink_cache;

/// Per-thread span nesting depth (shared across sinks; spans on one thread
/// nest strictly, whichever sink they target).
thread_local uint32_t tls_span_depth = 0;

}  // namespace

uint32_t ThreadId() {
  if (tls_thread_id == UINT32_MAX) {
    tls_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_id;
}

uint64_t TraceNowMicros() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

TraceSink::TraceSink(size_t capacity_per_thread)
    : sink_id_(g_next_sink_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity_per_thread > 0 ? capacity_per_thread : 1) {}

TraceSink& TraceSink::Global() {
  static TraceSink* sink = new TraceSink();  // never freed
  return *sink;
}

void TraceSink::SetCapacity(size_t capacity_per_thread) {
  capacity_.store(capacity_per_thread > 0 ? capacity_per_thread : 1,
                  std::memory_order_relaxed);
}

TraceSink::ThreadBuffer* TraceSink::BufferForThisThread() {
  if (tls_sink_cache.sink_id == sink_id_) {
    return static_cast<ThreadBuffer*>(tls_sink_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::thread::id self = std::this_thread::get_id();
  for (const auto& buf : buffers_) {
    if (buf->owner == self) {
      tls_sink_cache = {sink_id_, buf.get()};
      return buf.get();
    }
  }
  auto buf = std::make_unique<ThreadBuffer>();
  buf->owner = self;
  buf->tid = ThreadId();
  buf->ring.reserve(capacity_.load(std::memory_order_relaxed));
  ThreadBuffer* raw = buf.get();
  buffers_.push_back(std::move(buf));
  tls_sink_cache = {sink_id_, raw};
  return raw;
}

void TraceSink::Record(const TraceEvent& event) {
  ThreadBuffer* buf = BufferForThisThread();
  size_t capacity = capacity_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->ring.size() < capacity) {
    buf->ring.push_back(event);
  } else {
    buf->ring[buf->next % buf->ring.size()] = event;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ++buf->next;
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    out.insert(out.end(), buf->ring.begin(), buf->ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.start_us, a.tid, a.depth) <
                     std::tie(b.start_us, b.tid, b.depth);
            });
  return out;
}

void TraceSink::WriteJson(std::ostream& out) const {
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const TraceEvent& e : Events()) {
    json.BeginObject();
    json.Key("name");
    json.String(e.name != nullptr ? e.name : "?");
    json.Key("cat");
    json.String("idrepair");
    json.Key("ph");
    json.String("X");
    json.Key("ts");
    json.Uint(e.start_us);
    json.Key("dur");
    json.Uint(e.dur_us);
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(e.tid);
    if (e.has_arg) {
      json.Key("args");
      json.BeginObject();
      json.Key("n");
      json.Uint(e.arg);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.EndObject();
}

Status TraceSink::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open trace file '" + path + "'");
  WriteJson(out);
  out.flush();
  if (!out) return Status::IoError("failed writing trace file '" + path + "'");
  return Status::OK();
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->ring.clear();
    buf->next = 0;
  }
  dropped_.store(0, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char* name)
    : TraceSpan(Enabled() ? &TraceSink::Global() : nullptr, name, 0, false) {}

TraceSpan::TraceSpan(const char* name, uint64_t arg)
    : TraceSpan(Enabled() ? &TraceSink::Global() : nullptr, name, arg, true) {}

TraceSpan::TraceSpan(TraceSink* sink, const char* name)
    : TraceSpan(sink, name, 0, false) {}

TraceSpan::TraceSpan(TraceSink* sink, const char* name, uint64_t arg)
    : TraceSpan(sink, name, arg, true) {}

TraceSpan::TraceSpan(TraceSink* sink, const char* name, uint64_t arg,
                     bool has_arg)
    : sink_(sink),
      name_(name),
      arg_(arg),
      has_arg_(has_arg),
      start_us_(0),
      depth_(0) {
  if (sink_ == nullptr) return;
  depth_ = tls_span_depth++;
  start_us_ = TraceNowMicros();
}

TraceSpan::~TraceSpan() {
  if (sink_ == nullptr) return;
  --tls_span_depth;
  TraceEvent event;
  event.name = name_;
  event.start_us = start_us_;
  event.dur_us = TraceNowMicros() - start_us_;
  event.tid = ThreadId();
  event.depth = depth_;
  event.arg = arg_;
  event.has_arg = has_arg_;
  sink_->Record(event);
}

}  // namespace obs
}  // namespace idrepair

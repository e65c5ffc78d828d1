#include "stream/streaming_repairer.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "common/stopwatch.h"
#include "fault/deadline.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Streaming-engine instrumentation. The stream itself is single-threaded
/// and deterministic, so the work counters are kStable; poll latency is
/// wall-clock and therefore kRuntime.
struct StreamInstruments {
  obs::Counter* appends;
  obs::Counter* polls;
  obs::Counter* emitted;
  obs::Counter* dirty_components;
  obs::Counter* records_reused;
  obs::Counter* appends_rejected;
  obs::Counter* generation_runs;
  obs::Histogram* poll_seconds;

  static StreamInstruments& Get() {
    static StreamInstruments* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* si = new StreamInstruments();
      si->appends = reg.GetCounter("idrepair_stream_appends_total",
                                   obs::Stability::kStable,
                                   "Records accepted by Append()");
      si->polls = reg.GetCounter("idrepair_stream_polls_total",
                                 obs::Stability::kStable,
                                 "Poll() invocations");
      si->emitted = reg.GetCounter(
          "idrepair_stream_emitted_trajectories_total",
          obs::Stability::kStable,
          "Repaired trajectories emitted by Poll() and Finish()");
      si->dirty_components = reg.GetCounter(
          "idrepair_stream_dirty_components_total", obs::Stability::kStable,
          "Clean components invalidated by an appended record");
      si->records_reused = reg.GetCounter(
          "idrepair_stream_records_reused_total", obs::Stability::kStable,
          "Records that rode through a poll without their component "
          "re-running candidate generation");
      si->appends_rejected = reg.GetCounter(
          "idrepair_stream_appends_rejected_total", obs::Stability::kStable,
          "Appends rejected by bounded-buffer backpressure");
      si->generation_runs = reg.GetCounter(
          "idrepair_stream_generation_runs_total", obs::Stability::kStable,
          "Component-scoped pipeline runs (one per repaired window)");
      si->poll_seconds = reg.GetHistogram(
          "idrepair_stream_poll_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(), "Poll() wall time");
      return si;
    }();
    return *m;
  }
};

/// A free slot of `arena`: the most recently retired one, else a new slot
/// at the end. Retired slots are reset when freed, so a claimed slot is
/// always default-constructed.
template <typename T>
uint32_t Claim(std::vector<T>& arena, std::vector<uint32_t>& free) {
  if (!free.empty()) {
    uint32_t slot = free.back();
    free.pop_back();
    return slot;
  }
  arena.emplace_back();
  return static_cast<uint32_t>(arena.size() - 1);
}

}  // namespace

StreamingRepairer::StreamingRepairer(const TransitionGraph& graph,
                                     RepairOptions options,
                                     StreamOptions stream_options)
    : graph_(&graph),
      options_(std::move(options)),
      stream_options_(stream_options),
      inner_(graph, options_) {
  // Emitted fragments must at least be inert (no future record can join a
  // fragment whose start is more than η behind the watermark), so the
  // horizon is clamped to one η.
  flush_horizon_ = std::max(
      options_.eta,
      static_cast<Timestamp>(stream_options_.flush_horizon_multiplier *
                             static_cast<double>(options_.eta)));
}

Status StreamingRepairer::Append(const TrackingRecord& record) {
  // Before any state mutation: an injected Append fault drops nothing and
  // moves no watermark — the caller may retry the record.
  IDREPAIR_FAULT_INJECT("stream.append");
  if (saw_any_ && record.ts < watermark_) {
    return Status::OutOfRange(
        "stream records must arrive in non-decreasing timestamp order");
  }
  if (stream_options_.max_buffered > 0 &&
      pending_records_ >= stream_options_.max_buffered) {
    ++appends_rejected_;
    if (obs::Enabled()) {
      StreamInstruments::Get().appends_rejected->Increment();
    }
    return Status::ResourceExhausted(
        "stream buffer full (max_buffered=" +
        std::to_string(stream_options_.max_buffered) +
        "); poll and retry");
  }
  saw_any_ = true;
  watermark_ = record.ts;
  uint32_t component;
  auto it = frag_by_id_.find(record.id);
  if (it != frag_by_id_.end()) {
    Fragment& frag = frags_[it->second];
    frag.points.push_back(TrajectoryPoint{record.loc, record.ts});
    component = ComponentOf(frag.start());
  } else {
    component = NewFragment(record);
  }
  ++pending_records_;
  TouchComponent(component);
  if (obs::Enabled()) StreamInstruments::Get().appends->Increment();
  return Status::OK();
}

uint32_t StreamingRepairer::NewFragment(const TrackingRecord& record) {
  uint32_t handle = Claim(frags_, free_frags_);
  frags_[handle] =
      Fragment{record.id, {TrajectoryPoint{record.loc, record.ts}}};
  frag_by_id_.emplace(record.id, handle);
  // The new fragment starts at the watermark, so it either chains onto the
  // newest component (start gap <= η) or opens the next one. Components
  // never merge after the fact — starts only grow.
  uint32_t cid;
  if (!live_.empty() &&
      record.ts - components_[live_.back()].max_start <= options_.eta) {
    cid = live_.back();
    Component& comp = components_[cid];
    comp.frags.push_back(handle);
    comp.max_start = std::max(comp.max_start, record.ts);
  } else {
    cid = Claim(components_, free_components_);
    Component& comp = components_[cid];
    comp.frags.push_back(handle);
    comp.min_start = record.ts;
    comp.max_start = record.ts;
    live_.push_back(cid);
  }
  return cid;
}

uint32_t StreamingRepairer::ComponentOf(Timestamp start) const {
  auto after = std::upper_bound(
      live_.begin(), live_.end(), start, [&](Timestamp ts, uint32_t cid) {
        return ts < components_[cid].min_start;
      });
  return *(after - 1);
}

void StreamingRepairer::TouchComponent(uint32_t component) {
  Component& comp = components_[component];
  if (!comp.dirty) {
    comp.dirty = true;
    ++dirty_components_;
    if (obs::Enabled()) {
      StreamInstruments::Get().dirty_components->Increment();
    }
  }
}

std::vector<Trajectory> StreamingRepairer::Poll() {
  // A fired Poll fault yields an empty poll with the state untouched;
  // every record re-enters the next poll, so nothing is lost or repaired
  // twice.
  if (fault::Armed() && !fault::Inject("stream.poll").ok()) return {};
  ++polls_;
  obs::TraceSpan span("stream.poll");
  Stopwatch watch;
  const Timestamp inert_before = watermark_ - options_.eta;  // exclusive
  const Timestamp horizon_cut = watermark_ - flush_horizon_;
  std::vector<Trajectory> out;
  const size_t start_records = pending_records_;
  poll_fresh_records_ = 0;
  // Settled components form a prefix of the live order (starts ascend and
  // components are separated by > η), so walking in start order emits
  // exactly the (start, id) order a TrajectorySet gives the same
  // trajectories: concatenating per-component outputs is the global sort.
  std::vector<uint32_t> snapshot = live_;
  for (uint32_t cid : snapshot) {
    const Timestamp max_start = components_[cid].max_start;
    const bool settled = max_start < inert_before;
    Flush(cid, settled ? max_start : horizon_cut, !settled, &out);
  }
  const size_t fresh = std::min(poll_fresh_records_, start_records);
  const size_t reused = start_records - fresh;
  records_reused_ += reused;
  emitted_ += out.size();
  if (obs::Enabled()) {
    StreamInstruments& inst = StreamInstruments::Get();
    inst.polls->Increment();
    if (reused > 0) inst.records_reused->Increment(reused);
    inst.poll_seconds->Observe(watch.ElapsedSeconds());
    inst.emitted->Increment(out.size());
  }
  return out;
}

void StreamingRepairer::Flush(uint32_t component, Timestamp cut, bool forced,
                              std::vector<Trajectory>* out) {
  Component& comp = components_[component];
  if (comp.min_start > cut) return;  // nothing behind the cut yet
  // The repair window is the fragments behind the cut plus their full
  // η-context, so no joinable subset is severed: every fragment that could
  // still share a decision with one behind the cut is on the table.
  std::vector<Trajectory> window;
  for (uint32_t h : comp.frags) {
    const Fragment& f = frags_[h];
    if (f.start() <= cut + options_.eta) window.emplace_back(f.id, f.points);
  }
  const TrajectorySet set(std::move(window));
  // The window is repaired by the batch pipeline itself, Gm build included,
  // so every window's output is by construction what a batch IdRepairer
  // over exactly these records produces. An error result (injected fault,
  // configuration) degrades to passthrough.
  auto result = inner_.Repair(set);
  ++generation_runs_;
  if (obs::Enabled()) StreamInstruments::Get().generation_runs->Increment();
  poll_fresh_records_ += set.total_records();
  comp.dirty = false;

  // The ID each fragment behind the cut leaves under; null keeps it
  // buffered. A mixed decision defers its members behind the cut: applying
  // it later, once every member is behind the cut, reproduces the batch
  // decision.
  const size_t n = set.size();
  auto behind_cut = [&](TrajIndex i) { return set.at(i).start_time() <= cut; };
  std::vector<const std::string*> leaves_as(n, nullptr);
  for (TrajIndex i = 0; i < n; ++i) {
    if (behind_cut(i)) leaves_as[i] = &set.at(i).id();
  }
  if (result.ok()) {
    for (RepairIndex r : result->selected) {
      Span<const TrajIndex> members = result->candidates.members(r);
      const bool applied =
          std::all_of(members.begin(), members.end(), behind_cut);
      for (TrajIndex m : members) {
        leaves_as[m] = applied ? &result->candidates.target_id(r) : nullptr;
      }
    }
  }
  std::vector<Trajectory> leaving;
  std::vector<uint32_t> retired;
  for (TrajIndex i = 0; i < n; ++i) {
    if (leaves_as[i] == nullptr) continue;
    const Trajectory& t = set.at(i);
    leaving.emplace_back(*leaves_as[i], t.points());
    retired.push_back(frag_by_id_.at(t.id()));
    if (left_under_ != nullptr) {
      (*left_under_)[t.id()][*leaves_as[i]] += t.size();
    }
  }
  const TrajectorySet emitted(std::move(leaving));
  for (const Trajectory& t : emitted.trajectories()) out->push_back(t);
  if (capture_windows_) {
    captured_.push_back(WindowRepair{
        set.Records(),
        result.ok() ? result->repaired.trajectories() : set.trajectories(),
        forced, /*from_cache=*/false, /*degraded=*/!result.ok()});
  }
  if (!retired.empty()) {
    RetireFragments(component, retired);
    SplitComponent(component);
  }
}

void StreamingRepairer::RetireFragments(
    uint32_t component, const std::vector<uint32_t>& handles) {
  for (uint32_t h : handles) {
    Fragment& frag = frags_[h];
    frag_by_id_.erase(frag.id);
    pending_records_ -= frag.points.size();
    frag = Fragment();
    free_frags_.push_back(h);
  }
  Component& comp = components_[component];
  comp.frags.erase(
      std::remove_if(comp.frags.begin(), comp.frags.end(),
                     [&](uint32_t h) { return frags_[h].points.empty(); }),
      comp.frags.end());
}

void StreamingRepairer::SplitComponent(uint32_t component) {
  if (components_[component].frags.empty()) {
    live_.erase(std::remove(live_.begin(), live_.end(), component),
                live_.end());
    components_[component] = Component();
    free_components_.push_back(component);
    return;
  }
  // Retirement can sever a chain: regroup the remainder at > η start gaps.
  // The first group keeps this id; later groups become new components
  // slotted into live_ right behind it, preserving ascending start order.
  std::vector<uint32_t> order = components_[component].frags;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return frags_[a].start() < frags_[b].start();
  });
  std::vector<std::vector<uint32_t>> groups(1);
  groups.back().push_back(order.front());
  for (size_t i = 1; i < order.size(); ++i) {
    if (frags_[order[i]].start() - frags_[order[i - 1]].start() >
        options_.eta) {
      groups.emplace_back();
    }
    groups.back().push_back(order[i]);
  }
  size_t pos = static_cast<size_t>(
      std::find(live_.begin(), live_.end(), component) - live_.begin());
  for (size_t g = 0; g < groups.size(); ++g) {
    uint32_t cid = component;
    if (g > 0) {
      cid = Claim(components_, free_components_);
      live_.insert(live_.begin() + static_cast<ptrdiff_t>(pos + g), cid);
    }
    Component& comp = components_[cid];
    comp.frags = groups[g];
    comp.min_start = frags_[groups[g].front()].start();
    comp.max_start = frags_[groups[g].back()].start();
  }
}

std::vector<Trajectory> StreamingRepairer::TakeAll() {
  std::vector<Trajectory> held;
  for (Fragment& frag : frags_) {
    if (!frag.points.empty()) {
      held.emplace_back(std::move(frag.id), std::move(frag.points));
    }
  }
  frags_.clear();
  free_frags_.clear();
  frag_by_id_.clear();
  components_.clear();
  free_components_.clear();
  live_.clear();
  pending_records_ = 0;
  return held;
}

std::vector<Trajectory> StreamingRepairer::Finish() {
  obs::TraceSpan span("stream.finish");
  if (pending_records_ == 0) return {};
  std::vector<Trajectory> out;
  if (fault::Armed() && !fault::Inject("stream.finish").ok()) {
    // Degrade instead of dropping data: the final batch passes through
    // unrepaired, preserving every record.
    out = TrajectorySet(TakeAll()).trajectories();
  } else {
    // Every remaining component is effectively closed: repair each one
    // batch-exactly, in start order (concatenation equals the (start, id)
    // order of one TrajectorySet because components are separated by > η).
    std::vector<uint32_t> snapshot = live_;
    for (uint32_t cid : snapshot) {
      Flush(cid, components_[cid].max_start, /*forced=*/false, &out);
    }
    TakeAll();  // empty by now; resets the fragment arena
  }
  emitted_ += out.size();
  if (obs::Enabled()) StreamInstruments::Get().emitted->Increment(out.size());
  return out;
}

Result<RepairResult> StreamingRepairer::Repair(
    const TrajectorySet& set) const {
  IDREPAIR_RETURN_NOT_OK(options_.Validate());
  IDREPAIR_RETURN_NOT_OK(graph_->Validate());
  RunRecorder recorder("stream", set, options_.exec);
  fault::Deadline deadline = fault::Deadline::FromMillis(options_.deadline_ms);

  // Flatten and order by time so the scratch stream accepts every record.
  std::vector<TrackingRecord> records = set.Records();
  std::stable_sort(records.begin(), records.end(),
                   [](const TrackingRecord& a, const TrackingRecord& b) {
                     return std::tie(a.ts, a.id, a.loc) <
                            std::tie(b.ts, b.id, b.loc);
                   });

  // Replay with a Poll() every η of stream time — the cadence a live
  // consumer would use — then drain the tail. A bounded buffer inserts an
  // extra Poll() instead of rejecting: an offline replay is its own
  // consumer, so backpressure means "drain now", not "drop". The deadline
  // is probed at those same boundaries: once it expires, replay stops and
  // the unprocessed remainder passes through unrepaired, grouped by
  // observed ID.
  RepairOptions replay_options = options_;
  replay_options.deadline_ms = 0;  // budget enforced here, per replay batch
  StreamOptions replay_stream = stream_options_;
  replay_stream.max_buffered = 0;  // handled via the extra polls below
  StreamingRepairer scratch(*graph_, replay_options, replay_stream);
  std::unordered_map<std::string, std::map<std::string, size_t>> left_under;
  scratch.left_under_ = &left_under;
  std::vector<Trajectory> emitted;
  Status degraded = Status::OK();
  Timestamp last_poll = records.empty() ? 0 : records.front().ts;
  size_t next = 0;
  for (; next < records.size(); ++next) {
    IDREPAIR_RETURN_NOT_OK(scratch.Append(records[next]));
    bool due = scratch.watermark() - last_poll > options_.eta;
    bool full = stream_options_.max_buffered > 0 &&
                scratch.pending_records() >= stream_options_.max_buffered;
    if (due || full) {
      if (deadline.Expired()) {
        degraded = deadline.Check("stream replay");
        ++next;  // this record was appended; it drains with the buffer
        break;
      }
      for (Trajectory& t : scratch.Poll()) emitted.push_back(std::move(t));
      if (due) last_poll = scratch.watermark();
    }
  }
  if (degraded.ok()) {
    for (Trajectory& t : scratch.Finish()) emitted.push_back(std::move(t));
  } else {
    for (Trajectory& t : scratch.TakeAll()) emitted.push_back(std::move(t));
    for (; next < records.size(); ++next) {
      const TrackingRecord& r = records[next];
      emitted.emplace_back(r.id, std::vector<TrajectoryPoint>{{r.loc, r.ts}});
    }
  }

  RepairResult result;
  result.completion = degraded;
  recorder.Validity(*graph_);

  // Each input trajectory is one fragment ID of the scratch stream, which
  // tallied the IDs its records left under; records it passed through
  // unrepaired (a deadline, Finish's fault path) left under their own ID.
  // The rewrite is the ID most of them left under: the own ID on a tie,
  // else the smallest.
  for (TrajIndex i = 0; i < set.size(); ++i) {
    const std::string& own = set.at(i).id();
    std::map<std::string, size_t>& tally = left_under[own];
    size_t tallied = 0;
    for (const auto& [id, n] : tally) tallied += n;
    tally[own] += set.at(i).size() - tallied;
    auto winner = std::max_element(
        tally.begin(), tally.end(), [&](const auto& a, const auto& b) {
          return a.second < b.second ||
                 (a.second == b.second && b.first == own);
        });
    if (winner->first != own) result.rewrites[i] = winner->first;
  }

  // The constructor joins what left under one ID across flushes.
  result.repaired = TrajectorySet(std::move(emitted));
  recorder.Finish(&result);
  return result;
}

}  // namespace idrepair

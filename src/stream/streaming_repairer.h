#ifndef IDREPAIR_STREAM_STREAMING_REPAIRER_H_
#define IDREPAIR_STREAM_STREAMING_REPAIRER_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/transition_graph.h"
#include "repair/options.h"
#include "repair/repairer.h"
#include "traj/tracking_record.h"
#include "traj/trajectory.h"

namespace idrepair {

/// Knobs of the incremental streaming engine, separate from RepairOptions
/// (which configures the repair pipeline each component runs through).
struct StreamOptions {
  /// Force-flush fragments older than multiplier·η even mid-chain (clamped
  /// to at least 1·η so emitted fragments are always inert).
  double flush_horizon_multiplier = 2.0;
  /// Bounded-buffer backpressure: when > 0, Append() returns
  /// ResourceExhausted while `max_buffered` records are already pending —
  /// the caller should Poll() (or slow the producer) and retry. The batch
  /// adapter never rejects; it inserts an extra Poll() instead (an offline
  /// replay can always drain itself). 0 means unbounded.
  size_t max_buffered = 0;
};

/// Online ID repair over a record stream — the paper's §8 future-work
/// direction ("solutions that could perform ID repair as the tracking
/// records stream in"), with incrementally maintained window state.
///
/// Records arrive in timestamp order and accrete into trajectory
/// *fragments* (grouped by observed ID). Fragments chain into *components*
/// — maximal runs of fragment start times within η of their neighbors — and
/// because the stream's watermark (largest timestamp seen) only moves
/// forward, components only ever grow at the tail: a new fragment either
/// joins the newest component or opens the next one, and two existing
/// components can never merge. That monotonicity is what makes incremental
/// maintenance exact rather than approximate: cex never links fragments
/// whose starts differ by more than η, so a component's repair never needs
/// a record outside it.
///
/// ### What Append() maintains in place
///  * the record's fragment (its point list: arrivals are in time order, so
///    the first point is the fragment's start) and, for a first-seen ID,
///    its component membership;
///  * a dirty flag on the component the record landed in (counted on each
///    clean->dirty transition).
/// Append() builds no trajectory or index, evaluates no predicate and
/// repairs nothing:
/// Gm is built per repaired window, by the batch pipeline, at poll time, so
/// appends to one component never re-run generation for another (the
/// amortized-cost invariant the differential tier asserts by counter).
///
/// ### What Poll() emits (watermark semantics)
/// Every component goes through one flush rule with a cut: the fragments
/// starting at or before cut + η are repaired by the batch pipeline
/// (`IdRepairer::Repair` over exactly their records), only decisions whose
/// members all start at or before the cut are applied, and the fragments
/// behind the cut leave under their applied IDs — except the members of
/// mixed decisions, which stay buffered and re-enter the next poll, so
/// quality stays close to batch even under frequent polling. A component
/// whose newest fragment start is more than η behind the watermark is
/// *settled* and flushes with the cut at that newest start: the whole
/// component leaves, exactly as the batch pipeline repairs it. Under
/// continuously dense traffic a chain may never settle on its own, so the
/// cut of an unsettled component is the flush horizon. Each flush emits in
/// (start, id) order. Emitted trajectories are final: no later append can
/// re-emit or mutate them.
///
/// As a batch Repairer (the polymorphic engine interface), a streaming
/// instance replays the whole set through a scratch stream in timestamp
/// order with a Poll() every η of stream time — so the batch call
/// exercises the genuine incremental path, flushes included, rather than
/// degenerating to one big Finish(). Component repairs run on the
/// shared exec pool via the inner IdRepairer (RepairOptions::exec).
class StreamingRepairer : public Repairer {
 public:
  StreamingRepairer(const TransitionGraph& graph, RepairOptions options,
                    StreamOptions stream_options = {});

  /// Folds one record into the incremental state: the point joins its
  /// fragment and the fragment's component is marked dirty. Records must arrive in
  /// non-decreasing timestamp order (an OutOfRange error reports a
  /// regression; the record is dropped).
  /// With StreamOptions::max_buffered set, a full buffer rejects the record
  /// with ResourceExhausted — nothing is mutated and the caller may retry
  /// after polling.
  Status Append(const TrackingRecord& record);

  /// Repairs and returns every trajectory whose component has settled under
  /// the current watermark (plus forced flushes past the horizon). May
  /// return an empty vector.
  std::vector<Trajectory> Poll();

  /// Flushes everything still buffered, repairing each remaining component.
  std::vector<Trajectory> Finish();

  /// Batch adapter (Repairer interface): replays `set` through a scratch
  /// streaming instance (this one is untouched) and reassembles the
  /// emitted trajectories into a RepairResult. Candidate-level fields
  /// (`candidates`, `selected`, `total_effectiveness`) stay empty — the
  /// streaming path applies its decisions incrementally and does not keep
  /// a global candidate list. The scratch stream's incremental counters
  /// reach the idrepair_stream_* metrics when obs is on.
  Result<RepairResult> Repair(const TrajectorySet& set) const override;

  std::string_view name() const override { return "streaming"; }

  /// Largest timestamp observed so far.
  Timestamp watermark() const { return watermark_; }

  /// Records currently buffered (not yet emitted).
  size_t pending_records() const { return pending_records_; }

  /// Total trajectories emitted over the lifetime of the stream.
  size_t emitted_trajectories() const { return emitted_; }

  /// Incremental-state introspection, mirrored into the obs counters. The
  /// differential tier's amortized-cost assertion reads generation_runs():
  /// appending to one component must not grow it for settled components.
  size_t generation_runs() const { return generation_runs_; }
  size_t dirty_components_seen() const { return dirty_components_; }
  size_t records_reused() const { return records_reused_; }
  size_t appends_rejected() const { return appends_rejected_; }
  size_t poll_count() const { return polls_; }

  /// Fragment plus component slots held, live and free. Retired slots are
  /// reused, so this tracks the peak of live fragments and components, not
  /// every fragment the stream ever opened.
  size_t state_slots() const { return frags_.size() + components_.size(); }

  /// One repaired window, captured for the batch-equivalence differential
  /// tier: `records` is exactly what the engine repaired together and
  /// `repaired` the pipeline's output over them, so a test can replay
  /// `records` through a batch IdRepairer and demand byte-identical output.
  struct WindowRepair {
    std::vector<TrackingRecord> records;
    std::vector<Trajectory> repaired;
    bool forced = false;      // horizon flush (context window), not settled
    bool from_cache = false;  // always false: every window is recomputed
    bool degraded = false;    // pipeline error; records passed through
  };
  void set_capture_windows(bool on) { capture_windows_ = on; }
  const std::vector<WindowRepair>& captured_windows() const {
    return captured_;
  }

 private:
  /// One live trajectory fragment: the records of one observed ID still in
  /// the window, in arrival (= time) order. A retired fragment's slot is
  /// reset and reused by the next new one.
  struct Fragment {
    std::string id;
    std::vector<TrajectoryPoint> points;

    Timestamp start() const { return points.front().ts; }
  };

  /// One chain component: fragment handles plus the start-time envelope.
  struct Component {
    std::vector<uint32_t> frags;
    Timestamp min_start = 0;
    Timestamp max_start = 0;
    bool dirty = false;
  };

  /// Creates the fragment for a first-seen ID, assigns it to the newest
  /// component (start gap <= η) or a fresh one, and returns that component.
  uint32_t NewFragment(const TrackingRecord& record);

  /// The live component whose start range holds `start` (live_ ascends by
  /// start and components cover disjoint ranges).
  uint32_t ComponentOf(Timestamp start) const;

  /// Marks the component dirty (counting clean->dirty transitions).
  void TouchComponent(uint32_t component);

  /// The one flush rule: repairs the fragments of `component` starting at
  /// or before cut + η, applies the decisions whose members all start at
  /// or before `cut`, and appends the fragments behind the cut that no
  /// mixed decision defers to `out` under their applied IDs, in (start, id)
  /// order. `forced` only labels the captured window.
  void Flush(uint32_t component, Timestamp cut, bool forced,
             std::vector<Trajectory>* out);

  /// Removes fragments from the stream and their component, freeing their
  /// slots.
  void RetireFragments(uint32_t component,
                       const std::vector<uint32_t>& handles);

  /// Re-derives the component's start envelope after retirement and splits
  /// it where consecutive start gaps exceed η (retirement can sever a
  /// chain). New components slot into live_ right after the original so
  /// start order is preserved. A component left with no fragment leaves
  /// live_ and frees its slot.
  void SplitComponent(uint32_t component);

  /// Drains every live fragment as a trajectory (any order) and resets all
  /// incremental state; watermark and lifetime counters survive.
  std::vector<Trajectory> TakeAll();

  const TransitionGraph* graph_;
  RepairOptions options_;
  StreamOptions stream_options_;
  Timestamp flush_horizon_;
  Timestamp watermark_ = 0;
  bool saw_any_ = false;
  size_t emitted_ = 0;
  size_t pending_records_ = 0;

  /// The batch pipeline every window goes through. Its evaluator (and the
  /// reachability state derived from Gt) is built once, on the first
  /// window, and shared by every later one.
  IdRepairer inner_;

  std::vector<Fragment> frags_;
  std::vector<uint32_t> free_frags_;  // retired slots of frags_
  std::unordered_map<std::string, uint32_t> frag_by_id_;  // alive only
  std::vector<Component> components_;
  std::vector<uint32_t> free_components_;  // retired slots of components_
  std::vector<uint32_t> live_;  // alive components, ascending start

  size_t generation_runs_ = 0;
  size_t dirty_components_ = 0;
  size_t records_reused_ = 0;
  size_t appends_rejected_ = 0;
  size_t polls_ = 0;
  size_t poll_fresh_records_ = 0;  // records regenerated in current poll

  bool capture_windows_ = false;
  std::vector<WindowRepair> captured_;
  /// Fragment ID -> leaving ID -> records; set on the adapter's scratch only.
  std::unordered_map<std::string, std::map<std::string, size_t>>*
      left_under_ = nullptr;
};

}  // namespace idrepair

#endif  // IDREPAIR_STREAM_STREAMING_REPAIRER_H_

#include "eval/diagnostics.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "eval/metrics.h"
#include "fault/failpoint.h"

namespace idrepair {

const char* FailureReasonToString(FailureReason reason) {
  switch (reason) {
    case FailureReason::kFixed:
      return "fixed";
    case FailureReason::kEntitySpanExceedsEta:
      return "entity span exceeds eta";
    case FailureReason::kEntityLengthExceedsTheta:
      return "entity length exceeds theta";
    case FailureReason::kEntityFragmentsExceedZeta:
      return "entity fragments exceed zeta";
    case FailureReason::kWrongTargetChosen:
      return "wrong target chosen (Eq. 5)";
    case FailureReason::kCandidateMissing:
      return "correct candidate missing";
    case FailureReason::kCorrectCandidateNotSelected:
      return "correct candidate not selected";
  }
  return "unknown";
}

std::string RepairDiagnostics::Describe() const {
  std::ostringstream out;
  out << "erroneous trajectories: " << total_erroneous() << "\n";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    out << "  " << FailureReasonToString(static_cast<FailureReason>(i))
        << ": " << counts[i] << "\n";
  }
  return out.str();
}

RepairDiagnostics DiagnoseRepair(const Dataset& dataset,
                                 const TrajectorySet& observed,
                                 const RepairResult& result,
                                 const RepairOptions& options) {
  fault::MaybePerturb("eval.diagnostics.diagnose");
  RepairDiagnostics diag;
  diag.counts.assign(7, 0);
  auto truth = ComputeFragmentTruth(dataset, observed);

  // Entity -> its fragments (ascending, matching candidate member sets).
  std::unordered_map<std::string, std::vector<TrajIndex>> fragments;
  for (TrajIndex t = 0; t < observed.size(); ++t) {
    fragments[truth[t]].push_back(t);
  }

  // Index the candidate set: does a candidate with exactly this member set
  // exist, and with which target? Keys materialize the member spans (map
  // keys must own their storage).
  std::map<std::vector<TrajIndex>, std::vector<size_t>> by_members;
  for (size_t r = 0; r < result.candidates.size(); ++r) {
    by_members[result.candidates.members(r).ToVector()].push_back(r);
  }

  auto classify = [&](TrajIndex t) -> FailureReason {
    auto it = result.rewrites.find(t);
    if (it != result.rewrites.end() && it->second == truth[t]) {
      return FailureReason::kFixed;
    }
    const auto& frags = fragments.at(truth[t]);
    // Structural bounds on the whole entity.
    size_t records = 0;
    Timestamp lo = 0;
    Timestamp hi = 0;
    bool first = true;
    for (TrajIndex f : frags) {
      records += observed.at(f).size();
      Timestamp s = observed.at(f).start_time();
      Timestamp e = observed.at(f).end_time();
      if (first) {
        lo = s;
        hi = e;
        first = false;
      } else {
        lo = std::min(lo, s);
        hi = std::max(hi, e);
      }
    }
    if (hi - lo > options.eta) return FailureReason::kEntitySpanExceedsEta;
    if (records > options.theta) {
      return FailureReason::kEntityLengthExceedsTheta;
    }
    if (frags.size() > options.zeta) {
      return FailureReason::kEntityFragmentsExceedZeta;
    }
    auto cand_it = by_members.find(frags);
    if (cand_it == by_members.end()) {
      return FailureReason::kCandidateMissing;
    }
    for (size_t cand : cand_it->second) {
      if (result.candidates.target_id(cand) == truth[t]) {
        return FailureReason::kCorrectCandidateNotSelected;
      }
    }
    return FailureReason::kWrongTargetChosen;
  };

  for (TrajIndex t = 0; t < observed.size(); ++t) {
    if (observed.at(t).id() == truth[t]) continue;
    FailureReason reason = classify(t);
    diag.erroneous.push_back(t);
    diag.reasons.push_back(reason);
    ++diag.counts[static_cast<size_t>(reason)];
  }
  return diag;
}

}  // namespace idrepair

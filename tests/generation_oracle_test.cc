// Definitional oracle for phase 1 (candidate generation, §3.2).
//
// On random small transition graphs — cycles and self-loops included — it
// enumerates every subset of at most ζ trajectories, merges each one
// chronologically, and checks Definition 2.5 (jnb) with the θ/η bounds
// directly against the edge list and the entrance/exit marks the graph was
// built from. It shares no code with the generator's pruning or indexing:
// no PredicateEvaluator, ReachabilityMatrix, HopsToExit, LIG or MCP. The
// generator must emit exactly the joinable subsets that hold at least one
// invalid trajectory, with the Eq. (5) target and the Eq. (1) similarity
// computed straight from the formulas, under every LIG × MCP × thread ×
// grain combination. Over the whole candidate set, rarity (Eq. 2, under both
// aggregations) and effectiveness ω (Eq. 3) must match the formulas applied
// to the oracle's own member lists.
//
// End to end, the same instances check Eq. (4): the oracle enumerates every
// packing of pairwise trajectory-disjoint oracle candidates, scored with its
// own ω, and IdRepairer under exact selection must reach the largest Ω while
// EMAX never exceeds it. That check shares no code with ExactSelector or
// with the repair-graph brute force in selectors_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/grain.h"
#include "repair/candidates.h"
#include "repair/repairer.h"

namespace idrepair {
namespace {

/// A random instance together with the plain data the oracle reads.
struct Instance {
  TransitionGraph graph;
  std::set<std::pair<LocationId, LocationId>> edges;
  std::vector<bool> entrance;
  std::vector<bool> exit;
  std::vector<TrackingRecord> records;
  size_t theta = 0;
  Timestamp eta = 0;
  size_t zeta = 0;
  Timestamp time_bin = 0;
};

Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  Instance in;
  size_t n = 3 + rng.UniformIndex(5);
  for (size_t v = 0; v < n; ++v) {
    in.graph.AddLocation(std::string("L").append(std::to_string(v)));
  }
  for (LocationId u = 0; u < n; ++u) {
    for (LocationId v = 0; v < n; ++v) {
      // Self-loops are rarer than other edges but always possible.
      if (rng.Bernoulli(u == v ? 0.15 : 0.35)) in.edges.emplace(u, v);
    }
  }
  for (const auto& [u, v] : in.edges) {
    EXPECT_TRUE(in.graph.AddEdge(u, v).ok());
  }
  in.entrance.assign(n, false);
  in.exit.assign(n, false);
  in.entrance[rng.UniformIndex(n)] = true;
  in.exit[rng.UniformIndex(n)] = true;
  for (LocationId v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.3)) in.entrance[v] = true;
    if (rng.Bernoulli(0.3)) in.exit[v] = true;
    if (in.entrance[v]) {
      EXPECT_TRUE(in.graph.MarkEntrance(v).ok());
    }
    if (in.exit[v]) {
      EXPECT_TRUE(in.graph.MarkExit(v).ok());
    }
  }

  in.theta = 3 + rng.UniformIndex(5);
  in.eta = static_cast<Timestamp>(20 + rng.UniformIndex(60));
  in.zeta = 2 + rng.UniformIndex(3);
  const Timestamp bins[] = {5, 15, 60};
  in.time_bin = bins[rng.UniformIndex(3)];

  // A few entities walk the graph from an entrance; each walk's records
  // are scattered over 1–3 observed IDs (the ID errors to repair). Noise
  // trajectories wander anywhere. Timestamp steps of 0 exercise ties.
  std::vector<std::string> ids;
  auto fresh_id = [&] {
    ids.push_back(std::string("id").append(std::to_string(ids.size())));
    return ids.back();
  };
  size_t walks = 1 + rng.UniformIndex(3);
  for (size_t w = 0; w < walks && ids.size() < 10; ++w) {
    std::vector<LocationId> starts;
    for (LocationId v = 0; v < n; ++v) {
      if (in.entrance[v]) starts.push_back(v);
    }
    LocationId loc = starts[rng.UniformIndex(starts.size())];
    Timestamp ts = static_cast<Timestamp>(rng.UniformIndex(40));
    size_t len = 2 + rng.UniformIndex(in.theta);
    std::vector<std::string> walk_ids;
    size_t pieces = std::min<size_t>(1 + rng.UniformIndex(3), 10 - ids.size());
    for (size_t p = 0; p < pieces; ++p) walk_ids.push_back(fresh_id());
    for (size_t i = 0; i < len; ++i) {
      in.records.push_back(
          {walk_ids[rng.UniformIndex(walk_ids.size())], loc, ts});
      std::vector<LocationId> next;
      for (const auto& [u, v] : in.edges) {
        if (u == loc) next.push_back(v);
      }
      if (next.empty() || (in.exit[loc] && rng.Bernoulli(0.6))) break;
      loc = next[rng.UniformIndex(next.size())];
      ts += rng.Bernoulli(0.05) ? 0 : static_cast<Timestamp>(
                                          1 + rng.UniformIndex(8));
    }
  }
  size_t noise = rng.UniformIndex(3);
  for (size_t k = 0; k < noise && ids.size() < 10; ++k) {
    std::string id = fresh_id();
    size_t len = 1 + rng.UniformIndex(3);
    for (size_t i = 0; i < len; ++i) {
      in.records.push_back({id, static_cast<LocationId>(rng.UniformIndex(n)),
                            static_cast<Timestamp>(rng.UniformIndex(100))});
    }
  }
  return in;
}

using Point = std::pair<Timestamp, LocationId>;

/// Definition 2.2 plus strictly increasing timestamps, read off the edge
/// list and the I/O marks; `points` must be in chronological order.
bool OracleValidPath(const Instance& in, const std::vector<Point>& points) {
  if (points.empty()) return false;
  if (!in.entrance[points.front().second]) return false;
  if (!in.exit[points.back().second]) return false;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    if (points[i].first >= points[i + 1].first) return false;
    if (in.edges.count({points[i].second, points[i + 1].second}) == 0) {
      return false;
    }
  }
  return true;
}

/// jnb (Definition 2.5) with the θ/η bounds of §2.3: the chronological
/// merge of the subset's records is a valid path of at most θ records
/// spanning at most η seconds.
bool OracleJoinable(const Instance& in, const TrajectorySet& set,
                    const std::vector<TrajIndex>& subset) {
  std::vector<Point> merged;
  for (TrajIndex t : subset) {
    for (const TrajectoryPoint& p : set.at(t).points()) {
      merged.emplace_back(p.ts, p.loc);
    }
  }
  // A timestamp tie fails the path check whichever way it is ordered.
  std::sort(merged.begin(), merged.end());
  if (merged.size() > in.theta) return false;
  if (merged.back().first - merged.front().first > in.eta) return false;
  return OracleValidPath(in, merged);
}

/// One expected candidate: member set, ivt set, Eq. (5) target ID, and
/// Eq. (1) similarity.
using Row = std::tuple<std::vector<TrajIndex>, std::vector<TrajIndex>,
                       std::string, double>;

/// Eq. (5): the member maximizing Σ_j |Ti|/|Tj| · sim(Ti, Tj), ties to the
/// earlier member; then Eq. (1): the minimum similarity to that target.
Row OracleRow(const TrajectorySet& set, const std::vector<TrajIndex>& members,
              const std::vector<bool>& is_valid,
              const IdSimilarity& similarity) {
  TrajIndex target = members.front();
  double best = -1.0;
  for (TrajIndex i : members) {
    double score = 0.0;
    for (TrajIndex j : members) {
      score += static_cast<double>(set.at(i).size()) /
               static_cast<double>(set.at(j).size()) *
               similarity.Similarity(set.at(i).id(), set.at(j).id());
    }
    if (score > best) {
      best = score;
      target = i;
    }
  }
  double sim = 1.0;
  std::vector<TrajIndex> invalid;
  for (TrajIndex m : members) {
    sim = std::min(sim,
                   similarity.Similarity(set.at(target).id(), set.at(m).id()));
    if (!is_valid[m]) invalid.push_back(m);
  }
  return {members, invalid, set.at(target).id(), sim};
}

/// Rarity (Eq. 2) and effectiveness ω (Eq. 3) of one expected candidate.
using Score = std::pair<uint32_t, double>;

/// Eq. (2) and (3) over the whole expected candidate set: d(T) counts the
/// candidates whose ivt holds T, ra(R) is the minimum (or maximum) of d
/// over ivt(R), and ω(R) = sim(R) + λ · log(|ivt(R)|) / log(ra(R) + offset).
std::map<std::vector<TrajIndex>, Score> OracleScores(
    const std::map<std::vector<TrajIndex>, Row>& expected, bool max_rarity,
    double lambda, uint32_t offset) {
  std::map<TrajIndex, uint32_t> degree;
  for (const auto& [members, row] : expected) {
    for (TrajIndex t : std::get<1>(row)) ++degree[t];
  }
  std::map<std::vector<TrajIndex>, Score> scores;
  for (const auto& [members, row] : expected) {
    const std::vector<TrajIndex>& ivt = std::get<1>(row);
    uint32_t ra = degree[ivt.front()];
    for (TrajIndex t : ivt) {
      ra = max_rarity ? std::max(ra, degree[t]) : std::min(ra, degree[t]);
    }
    double omega = std::get<3>(row) +
                   lambda * std::log(static_cast<double>(ivt.size())) /
                       std::log(static_cast<double>(ra + offset));
    scores.emplace(members, Score{ra, omega});
  }
  return scores;
}

/// Every subset of at most ζ trajectories, in lexicographic order.
void ForEachSubset(size_t n, size_t zeta, std::vector<TrajIndex>& subset,
                   TrajIndex from,
                   const std::function<void(const std::vector<TrajIndex>&)>& f) {
  for (TrajIndex t = from; t < n; ++t) {
    subset.push_back(t);
    f(subset);
    if (subset.size() < zeta) ForEachSubset(n, zeta, subset, t + 1, f);
    subset.pop_back();
  }
}

/// The oracle's view of one seeded instance: its trajectories, their
/// validity, and every candidate (a joinable subset with an invalid member)
/// keyed by member set. λ and the log-base offset vary with the seed so
/// Eq. (3) is checked off its defaults too.
struct OracleCase {
  Instance in;
  TrajectorySet set;
  std::vector<bool> is_valid;
  std::map<std::vector<TrajIndex>, Row> expected;
  double lambda = 0.0;
  uint32_t offset = 0;
};

OracleCase MakeOracleCase(uint64_t seed, const IdSimilarity& similarity) {
  OracleCase c;
  c.in = MakeInstance(seed);
  c.set = TrajectorySet::FromRecords(c.in.records);
  EXPECT_LE(c.set.size(), 10u);
  c.is_valid.resize(c.set.size());
  for (TrajIndex i = 0; i < c.set.size(); ++i) {
    std::vector<Point> points;
    for (const TrajectoryPoint& p : c.set.at(i).points()) {
      points.emplace_back(p.ts, p.loc);
    }
    c.is_valid[i] = OracleValidPath(c.in, points);
  }
  std::vector<TrajIndex> subset;
  ForEachSubset(c.set.size(), c.in.zeta, subset, 0,
                [&](const std::vector<TrajIndex>& s) {
                  bool has_ivt = std::any_of(
                      s.begin(), s.end(),
                      [&](TrajIndex t) { return !c.is_valid[t]; });
                  if (has_ivt && OracleJoinable(c.in, c.set, s)) {
                    c.expected.emplace(s, OracleRow(c.set, s, c.is_valid,
                                                    similarity));
                  }
                });
  c.lambda = seed % 2 == 0 ? 0.5 : 1.0;
  c.offset = 1 + static_cast<uint32_t>((seed / 2) % 2);
  return c;
}

/// RepairOptions with the instance's θ/η/ζ/bin and the case's λ/offset.
RepairOptions OracleOptions(const OracleCase& c) {
  RepairOptions options;
  options.theta = c.in.theta;
  options.eta = c.in.eta;
  options.zeta = c.in.zeta;
  options.time_bin = c.in.time_bin;
  options.lambda = c.lambda;
  options.rarity_base_offset = c.offset;
  return options;
}

TEST(GenerationOracleTest, CandidatesAreExactlyTheJoinableSubsetsWithAnIvt) {
  NormalizedEditSimilarity similarity;
  size_t expected_total = 0;
  // Candidates joining three or more trajectories.
  size_t expected_triples = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const OracleCase c = MakeOracleCase(seed, similarity);
    const Instance& in = c.in;
    const TrajectorySet& set = c.set;
    const std::vector<bool>& is_valid = c.is_valid;
    const std::map<std::vector<TrajIndex>, Row>& expected = c.expected;
    expected_total += expected.size();
    for (const auto& [members, row] : expected) {
      if (members.size() >= 3) ++expected_triples;
    }

    const double lambda = c.lambda;
    const uint32_t offset = c.offset;
    const std::map<std::vector<TrajIndex>, Score> expected_scores[] = {
        OracleScores(expected, false, lambda, offset),
        OracleScores(expected, true, lambda, offset)};

    // Grain 1 gives one block per seed (many blocks, some rooting no
    // candidate), 3 a few, auto the cost model's pick, and set.size() —
    // at least the number of seeds — a single block. The grain shards the
    // Gm build too: 1 and 3 split it at four threads, the others do not.
    PredicateEvaluator pred(in.graph, in.theta, in.eta);
    for (bool lig : {false, true}) {
      for (bool mcp : {false, true}) {
        for (int threads : {1, 4}) {
          for (size_t grain : {size_t{1}, size_t{3}, kGrainAuto, set.size()}) {
            SCOPED_TRACE("lig=" + std::to_string(lig) +
                         " mcp=" + std::to_string(mcp) +
                         " threads=" + std::to_string(threads) +
                         " grain=" + std::to_string(grain));
            RepairOptions options = OracleOptions(c);
            options.use_lig = lig;
            options.use_mcp_pruning = mcp;
            options.exec.num_threads = threads;
            options.exec.grain = grain;
            TrajectoryGraph gm(set, pred, options);
            auto generated = GenerateCandidates(set, gm, pred, options,
                                                similarity, is_valid);
            ASSERT_TRUE(generated.ok()) << generated.status();
            std::map<std::vector<TrajIndex>, Row> got;
            for (size_t r = 0; r < generated->size(); ++r) {
              std::vector<TrajIndex> members =
                  generated->members(r).ToVector();
              Row row{members, generated->invalid_members(r),
                      generated->target_id(r), generated->similarity(r)};
              EXPECT_TRUE(got.emplace(members, row).second)
                  << "member set emitted twice";
            }
            ASSERT_EQ(got, expected);

            for (bool max_rarity : {false, true}) {
              SCOPED_TRACE("max_rarity=" + std::to_string(max_rarity));
              options.rarity_aggregation = max_rarity
                                               ? RarityAggregation::kMax
                                               : RarityAggregation::kMin;
              ASSERT_TRUE(
                  ComputeEffectiveness(*generated, options, set.size()).ok());
              const auto& want = expected_scores[max_rarity ? 1 : 0];
              for (size_t r = 0; r < generated->size(); ++r) {
                const Score& score =
                    want.at(generated->members(r).ToVector());
                EXPECT_EQ(generated->rarity(r), score.first);
                EXPECT_NEAR(generated->effectiveness(r), score.second,
                            1e-12);
              }
            }
          }
        }
      }
    }
  }
  // The oracle is not vacuous: the instances produce real joins.
  EXPECT_GT(expected_total, 400u);
  EXPECT_GT(expected_triples, 50u);
}

/// Eq. (4) by enumeration: the largest Ω = Σ ω over every packing of
/// pairwise trajectory-disjoint candidates, the empty packing (Ω = 0)
/// included. Each packing is visited once, as an increasing index list.
double OracleBestPacking(
    const std::map<std::vector<TrajIndex>, Score>& scores) {
  std::vector<std::pair<uint32_t, double>> items;  // member bitmask, ω
  for (const auto& [members, score] : scores) {
    uint32_t mask = 0;
    for (TrajIndex t : members) mask |= uint32_t{1} << t;
    items.emplace_back(mask, score.second);
  }
  double best = 0.0;
  std::function<void(size_t, uint32_t, double)> visit =
      [&](size_t next, uint32_t used, double omega) {
        best = std::max(best, omega);
        for (size_t i = next; i < items.size(); ++i) {
          if ((items[i].first & used) == 0) {
            visit(i + 1, used | items[i].first, omega + items[i].second);
          }
        }
      };
  visit(0, 0, 0.0);
  return best;
}

/// Ω of a repair's selection, scored with the oracle's own ω: every
/// selected repair must be an oracle candidate, and no two may share a
/// trajectory.
double OracleOmega(const RepairResult& result,
                   const std::map<std::vector<TrajIndex>, Score>& scores) {
  std::set<TrajIndex> covered;
  double omega = 0.0;
  for (RepairIndex r : result.selected) {
    std::vector<TrajIndex> members = result.candidates.members(r).ToVector();
    auto it = scores.find(members);
    EXPECT_NE(it, scores.end()) << "selected repair is no oracle candidate";
    if (it == scores.end()) continue;
    for (TrajIndex t : members) {
      EXPECT_TRUE(covered.insert(t).second)
          << "trajectory " << t << " in two selected repairs";
    }
    omega += it->second.second;
  }
  return omega;
}

TEST(GenerationOracleTest, ExactSelectionReachesTheBestOraclePacking) {
  size_t nonzero_optima = 0;      // instances with something to select
  size_t emax_below_optimum = 0;  // where the greedy is strictly worse
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const OracleCase c =
        MakeOracleCase(seed, NormalizedEditSimilarity());
    const std::map<std::vector<TrajIndex>, Score> scores =
        OracleScores(c.expected, false, c.lambda, c.offset);
    const double best = OracleBestPacking(scores);
    if (best > 0.0) ++nonzero_optima;

    RepairOptions options = OracleOptions(c);
    for (SelectionAlgorithm selection :
         {SelectionAlgorithm::kExact, SelectionAlgorithm::kEmax}) {
      options.selection = selection;
      auto result = IdRepairer(c.in.graph, options).Repair(c.set);
      ASSERT_TRUE(result.ok()) << result.status();
      const double omega = OracleOmega(*result, scores);
      EXPECT_NEAR(result->total_effectiveness, omega, 1e-9);
      if (selection == SelectionAlgorithm::kExact) {
        EXPECT_NEAR(omega, best, 1e-9);
      } else {
        EXPECT_LE(omega, best + 1e-9);
        if (omega < best - 1e-9) ++emax_below_optimum;
      }
    }
  }
  // Not vacuous: many instances have something to select, and on some the
  // greedy falls short of the optimum, so "exact reaches it" has teeth.
  EXPECT_GT(nonzero_optima, 100u);
  EXPECT_GT(emax_below_optimum, 0u);
}

}  // namespace
}  // namespace idrepair

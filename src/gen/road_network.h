#ifndef IDREPAIR_GEN_ROAD_NETWORK_H_
#define IDREPAIR_GEN_ROAD_NETWORK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/transition_graph.h"
#include "graph/types.h"

namespace idrepair {

/// City-scale topology families (ROADMAP "scenario diversity"; the modeling
/// follows the road-network structure of Custers et al., Route
/// Reconstruction from Traffic Flow):
///
///  * kGrid — a Manhattan grid with alternating one-way streets (rightward
///    on even rows, leftward on odd; downward on even columns, upward on
///    odd) plus a configurable fraction of diagonal shortcuts. The
///    alternation creates short directed cycles, the structure the cex
///    diagonal semantics exist for.
///  * kRingRadial — concentric ring roads (alternating orientation) joined
///    by bidirectional radial avenues through a central hub.
///  * kHubAndSpoke — regional hub vertices meshed all-to-all, each feeding a
///    directed loop of local roads (hub -> l1 -> ... -> lk -> hub).
enum class RoadTopology { kGrid, kRingRadial, kHubAndSpoke };

/// Parameters of a generated road network. Defaults give a mid-size city;
/// a 102x102 grid crosses the 10k-vertex mark.
struct RoadNetworkConfig {
  RoadTopology topology = RoadTopology::kGrid;

  /// kGrid: rows x cols intersections.
  size_t rows = 32;
  size_t cols = 32;
  /// Fraction of eligible grid intersections with a diagonal shortcut.
  double diagonal_fraction = 0.5;

  /// kRingRadial: number of concentric rings and radial avenues. Vertex
  /// count is rings * spokes + 1 (the hub).
  size_t rings = 8;
  size_t spokes = 16;

  /// kHubAndSpoke: meshed hubs, each with a loop of local roads. Vertex
  /// count is hubs * (1 + locals_per_hub).
  size_t hubs = 6;
  size_t locals_per_hub = 24;

  /// Every access_stride-th vertex doubles as a trip origin (entrance) and
  /// every one offset by stride/2 as a destination (exit) — garages and
  /// side streets, so city trips stay short relative to the network
  /// diameter instead of having to cross it. 1 = every vertex is both.
  size_t access_stride = 3;

  /// Per-edge travel-time distributions: the median (seconds) is drawn
  /// deterministically per edge from [median_lo, median_hi], the log-normal
  /// sigma from [sigma_lo, sigma_hi] — arterial roads are fast and
  /// reliable, side streets slow and noisy.
  int64_t travel_median_lo = 45;
  int64_t travel_median_hi = 150;
  double travel_sigma_lo = 0.2;
  double travel_sigma_hi = 0.5;

  /// Camera-dropout regions: `dropout_regions` contiguous patches grown to
  /// cover ~`dropout_coverage` of all vertices; a record captured inside a
  /// patch is dropped with probability `dropout_miss_rate` at traffic
  /// generation time (spatially correlated missing records, the city-scale
  /// analog of §6.3.3's uniform missing rate).
  size_t dropout_regions = 0;
  double dropout_coverage = 0.0;
  double dropout_miss_rate = 0.0;

  /// Seeds the per-edge parameter draws, diagonal placement, and dropout
  /// patch growth; the same config always builds the same network.
  uint64_t seed = 1;

  Status Validate() const;
};

/// A generated road network: the transition graph plus the per-edge travel
/// distributions and camera-dropout membership the traffic model samples
/// from, and a guided random-walk trip sampler that replaces exhaustive
/// valid-path enumeration (infeasible past a few hundred vertices).
class RoadNetwork {
 public:
  /// Builds the network for `config`; InvalidArgument on out-of-range
  /// parameters, or when no entrance can reach an exit.
  static Result<RoadNetwork> Build(const RoadNetworkConfig& config);

  const TransitionGraph& graph() const { return graph_; }
  const RoadNetworkConfig& config() const { return config_; }

  /// Deterministic per-edge travel-time distribution parameters.
  struct EdgeTravel {
    int64_t median_seconds;
    double sigma;
  };
  EdgeTravel TravelParams(LocationId from, LocationId to) const;

  /// One log-normal travel-time draw for the edge, >= 1 second.
  int64_t SampleTravelSeconds(LocationId from, LocationId to, Rng& rng) const;

  /// True iff `loc` lies inside a camera-dropout patch.
  bool InDropoutRegion(LocationId loc) const {
    return dropout_[loc] != 0;
  }
  size_t num_dropout_locations() const { return num_dropout_; }
  double dropout_miss_rate() const { return config_.dropout_miss_rate; }

  /// Trip origins: entrances from which an exit is reachable.
  const std::vector<LocationId>& origins() const { return origins_; }

  /// Hops from `loc` to the nearest exit (graph/reachability.h's
  /// HopsToExit), ReachabilityMatrix::kUnreachable when none.
  uint32_t HopsToExit(LocationId loc) const { return hops_to_exit_[loc]; }

  /// Samples a trip from `origin`: a valid path (entrance -> ... -> exit)
  /// of min_len..max_len locations by a guided random walk that only takes
  /// edges keeping an exit within the remaining hop budget; at an exit it
  /// stops with probability `exit_prob` once min_len is met. Requires
  /// `origin` to be one of origins() with HopsToExit(origin) < max_len;
  /// always terminates with a valid path.
  std::vector<LocationId> SampleTrip(LocationId origin, size_t min_len,
                                     size_t max_len, double exit_prob,
                                     Rng& rng) const;

 private:
  RoadNetwork() = default;

  void FinishBuild();  // origins, hops-to-exit, dropout patches

  TransitionGraph graph_;
  RoadNetworkConfig config_;
  std::vector<LocationId> origins_;
  std::vector<uint32_t> hops_to_exit_;
  std::vector<uint8_t> dropout_;
  size_t num_dropout_ = 0;
};

}  // namespace idrepair

#endif  // IDREPAIR_GEN_ROAD_NETWORK_H_

#include "gen/road_network.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "graph/reachability.h"

namespace idrepair {

namespace {

constexpr uint32_t kUnreachable = ReachabilityMatrix::kUnreachable;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string VertexName(const char* prefix, size_t a, size_t b) {
  std::string name = prefix;
  name += std::to_string(a);
  name += '.';
  name += std::to_string(b);
  return name;
}

void BuildGrid(const RoadNetworkConfig& config, Rng& rng, TransitionGraph& g) {
  size_t rows = config.rows;
  size_t cols = config.cols;
  std::vector<std::vector<LocationId>> id(rows, std::vector<LocationId>(cols));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      id[r][c] = g.AddLocation(VertexName("g", r, c));
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // One-way streets alternate orientation per row/column, the classic
      // Manhattan pattern; adjacent opposing pairs form 4-cycles.
      if (c + 1 < cols) {
        if (r % 2 == 0) {
          (void)g.AddEdge(id[r][c], id[r][c + 1]);
        } else {
          (void)g.AddEdge(id[r][c + 1], id[r][c]);
        }
      }
      if (r + 1 < rows) {
        if (c % 2 == 0) {
          (void)g.AddEdge(id[r][c], id[r + 1][c]);
        } else {
          (void)g.AddEdge(id[r + 1][c], id[r][c]);
        }
      }
      if (c + 1 < cols && r + 1 < rows &&
          rng.Bernoulli(config.diagonal_fraction)) {
        (void)g.AddEdge(id[r][c], id[r + 1][c + 1]);
      }
    }
  }
}

void BuildRingRadial(const RoadNetworkConfig& config, TransitionGraph& g) {
  size_t rings = config.rings;
  size_t spokes = config.spokes;
  LocationId hub = g.AddLocation("hub");
  auto vertex = [&](size_t ring, size_t spoke) -> LocationId {
    return static_cast<LocationId>(1 + ring * spokes + spoke);
  };
  for (size_t r = 0; r < rings; ++r) {
    for (size_t s = 0; s < spokes; ++s) {
      (void)g.AddLocation(VertexName("r", r, s));
    }
  }
  for (size_t r = 0; r < rings; ++r) {
    for (size_t s = 0; s < spokes; ++s) {
      // Ring roads alternate orientation ring by ring.
      size_t next = (s + 1) % spokes;
      if (r % 2 == 0) {
        (void)g.AddEdge(vertex(r, s), vertex(r, next));
      } else {
        (void)g.AddEdge(vertex(r, next), vertex(r, s));
      }
      // Radial avenues are two-way.
      if (r + 1 < rings) {
        (void)g.AddEdge(vertex(r, s), vertex(r + 1, s));
        (void)g.AddEdge(vertex(r + 1, s), vertex(r, s));
      }
    }
  }
  for (size_t s = 0; s < spokes; ++s) {
    (void)g.AddEdge(hub, vertex(0, s));
    (void)g.AddEdge(vertex(0, s), hub);
  }
}

void BuildHubAndSpoke(const RoadNetworkConfig& config, TransitionGraph& g) {
  size_t hubs = config.hubs;
  size_t locals = config.locals_per_hub;
  std::vector<LocationId> hub_ids(hubs);
  for (size_t h = 0; h < hubs; ++h) {
    hub_ids[h] = g.AddLocation("hub" + std::to_string(h));
    for (size_t l = 0; l < locals; ++l) {
      (void)g.AddLocation(VertexName("h", h, l));
    }
  }
  auto local = [&](size_t h, size_t l) -> LocationId {
    return static_cast<LocationId>(h * (1 + locals) + 1 + l);
  };
  // Hubs are meshed all-to-all (the arterial backbone).
  for (size_t a = 0; a < hubs; ++a) {
    for (size_t b = 0; b < hubs; ++b) {
      if (a != b) (void)g.AddEdge(hub_ids[a], hub_ids[b]);
    }
  }
  for (size_t h = 0; h < hubs; ++h) {
    if (locals == 0) continue;
    // Feeder loop hub -> l0 -> l1 -> ... -> hub, with an on/off ramp every
    // fourth local so trips need not ride the whole loop.
    (void)g.AddEdge(hub_ids[h], local(h, 0));
    for (size_t l = 0; l + 1 < locals; ++l) {
      (void)g.AddEdge(local(h, l), local(h, l + 1));
    }
    (void)g.AddEdge(local(h, locals - 1), hub_ids[h]);
    for (size_t l = 3; l < locals; l += 4) {
      (void)g.AddEdge(local(h, l), hub_ids[h]);
      (void)g.AddEdge(hub_ids[h], local(h, l));
    }
  }
}

}  // namespace

Status RoadNetworkConfig::Validate() const {
  switch (topology) {
    case RoadTopology::kGrid:
      if (rows == 0 || cols == 0) {
        return Status::InvalidArgument("grid rows/cols must be positive");
      }
      break;
    case RoadTopology::kRingRadial:
      if (rings == 0 || spokes < 3) {
        return Status::InvalidArgument(
            "ring-radial needs rings >= 1 and spokes >= 3");
      }
      break;
    case RoadTopology::kHubAndSpoke:
      if (hubs < 2) {
        return Status::InvalidArgument("hub-and-spoke needs hubs >= 2");
      }
      break;
  }
  if (diagonal_fraction < 0.0 || diagonal_fraction > 1.0) {
    return Status::InvalidArgument("diagonal_fraction must be in [0, 1]");
  }
  if (access_stride == 0) {
    return Status::InvalidArgument("access_stride must be positive");
  }
  if (travel_median_lo < 1 || travel_median_hi < travel_median_lo) {
    return Status::InvalidArgument(
        "travel medians need 1 <= median_lo <= median_hi");
  }
  if (travel_sigma_lo < 0.0 || travel_sigma_hi < travel_sigma_lo) {
    return Status::InvalidArgument(
        "travel sigmas need 0 <= sigma_lo <= sigma_hi");
  }
  if (dropout_coverage < 0.0 || dropout_coverage > 1.0 ||
      dropout_miss_rate < 0.0 || dropout_miss_rate > 1.0) {
    return Status::InvalidArgument(
        "dropout coverage/miss rate must be in [0, 1]");
  }
  if ((dropout_coverage > 0.0) != (dropout_regions > 0)) {
    return Status::InvalidArgument(
        "dropout_regions and dropout_coverage must be set together");
  }
  return Status::OK();
}

Result<RoadNetwork> RoadNetwork::Build(const RoadNetworkConfig& config) {
  IDREPAIR_RETURN_NOT_OK(config.Validate());
  RoadNetwork net;
  net.config_ = config;
  Rng rng(config.seed ^ 0xc2b2ae3d27d4eb4fULL);
  switch (config.topology) {
    case RoadTopology::kGrid:
      BuildGrid(config, rng, net.graph_);
      break;
    case RoadTopology::kRingRadial:
      BuildRingRadial(config, net.graph_);
      break;
    case RoadTopology::kHubAndSpoke:
      BuildHubAndSpoke(config, net.graph_);
      break;
  }
  size_t n = net.graph_.num_locations();
  // Scattered access points: trips may begin at any entrance vertex and end
  // at any exit vertex, so trip length is decoupled from network diameter.
  size_t stride = config.access_stride;
  for (LocationId v = 0; v < n; ++v) {
    if (v % stride == 0) (void)net.graph_.MarkEntrance(v);
    if (v % stride == stride / 2) (void)net.graph_.MarkExit(v);
  }
  net.FinishBuild();
  if (net.origins_.empty()) {
    return Status::InvalidArgument(
        "road network has no entrance that reaches an exit");
  }
  IDREPAIR_RETURN_NOT_OK(net.graph_.Validate());
  // Dropout patches grow from seeded cores by BFS, one layer per region per
  // round, until the target coverage is met.
  if (config.dropout_regions > 0) {
    size_t target = static_cast<size_t>(
        std::llround(config.dropout_coverage * static_cast<double>(n)));
    std::vector<std::vector<LocationId>> frontiers(config.dropout_regions);
    for (auto& f : frontiers) {
      LocationId core = static_cast<LocationId>(rng.UniformIndex(n));
      if (net.dropout_[core] == 0) {
        net.dropout_[core] = 1;
        ++net.num_dropout_;
        f.push_back(core);
      }
    }
    bool grew = true;
    while (net.num_dropout_ < target && grew) {
      grew = false;
      for (auto& frontier : frontiers) {
        if (net.num_dropout_ >= target) break;
        std::vector<LocationId> next;
        for (LocationId v : frontier) {
          for (auto span : {net.graph_.OutNeighbors(v),
                            net.graph_.InNeighbors(v)}) {
            for (LocationId w : span) {
              if (net.num_dropout_ >= target) break;
              if (net.dropout_[w] == 0) {
                net.dropout_[w] = 1;
                ++net.num_dropout_;
                next.push_back(w);
                grew = true;
              }
            }
          }
        }
        frontier = std::move(next);
      }
    }
  }
  return net;
}

void RoadNetwork::FinishBuild() {
  size_t n = graph_.num_locations();
  dropout_.assign(n, 0);
  // Hops to the nearest exit are the guide rail of SampleTrip (never step
  // anywhere an exit cannot be reached from within the remaining budget).
  hops_to_exit_ = idrepair::HopsToExit(graph_);
  for (LocationId v = 0; v < n; ++v) {
    if (graph_.IsEntrance(v) && hops_to_exit_[v] != kUnreachable) {
      origins_.push_back(v);
    }
  }
}

RoadNetwork::EdgeTravel RoadNetwork::TravelParams(LocationId from,
                                                  LocationId to) const {
  uint64_t h = SplitMix64(config_.seed ^
                          ((static_cast<uint64_t>(from) << 32) | to));
  int64_t span = config_.travel_median_hi - config_.travel_median_lo + 1;
  int64_t median = config_.travel_median_lo +
                   static_cast<int64_t>(h % static_cast<uint64_t>(span));
  double frac =
      static_cast<double>(h >> 40) / static_cast<double>(1ULL << 24);
  double sigma = config_.travel_sigma_lo +
                 frac * (config_.travel_sigma_hi - config_.travel_sigma_lo);
  return EdgeTravel{median, sigma};
}

int64_t RoadNetwork::SampleTravelSeconds(LocationId from, LocationId to,
                                         Rng& rng) const {
  EdgeTravel params = TravelParams(from, to);
  double t = rng.LogNormal(std::log(static_cast<double>(params.median_seconds)),
                           params.sigma);
  return std::max<int64_t>(1, static_cast<int64_t>(t));
}

std::vector<LocationId> RoadNetwork::SampleTrip(LocationId origin,
                                                size_t min_len, size_t max_len,
                                                double exit_prob,
                                                Rng& rng) const {
  std::vector<LocationId> path{origin};
  std::vector<LocationId> choices;
  LocationId cur = origin;
  while (true) {
    bool can_stop = graph_.IsExit(cur) && path.size() >= min_len;
    if (can_stop && (path.size() >= max_len || rng.Bernoulli(exit_prob))) {
      return path;
    }
    size_t budget = max_len - path.size();  // edges still available
    choices.clear();
    if (budget >= 1) {
      for (LocationId w : graph_.OutNeighbors(cur)) {
        if (hops_to_exit_[w] != kUnreachable && hops_to_exit_[w] <= budget - 1) {
          choices.push_back(w);
        }
      }
    }
    if (choices.empty()) {
      // Invariant: hops_to_exit_[cur] <= budget at all times, so running
      // out of guided moves means cur is an exit — the path is valid even
      // when shorter than the soft min_len.
      return path;
    }
    cur = choices[rng.UniformIndex(choices.size())];
    path.push_back(cur);
  }
}

}  // namespace idrepair

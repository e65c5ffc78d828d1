#include "gen/traffic_model.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <tuple>
#include <utility>

#include "gen/id_generator.h"

namespace idrepair {

Status TrafficConfig::Validate() const {
  if (num_trips == 0) {
    return Status::InvalidArgument("num_trips must be positive");
  }
  if (window_seconds < 1) {
    return Status::InvalidArgument("window_seconds must be >= 1");
  }
  if (diurnal_peak_fraction < 0.0 || diurnal_peak_fraction > 1.0) {
    return Status::InvalidArgument("diurnal_peak_fraction must be in [0, 1]");
  }
  if (diurnal_peak_width <= 0.0 || diurnal_peak_width > 0.5) {
    return Status::InvalidArgument("diurnal_peak_width must be in (0, 0.5]");
  }
  if (arrivals == ArrivalProcess::kBursty) {
    if (burst_count == 0 || burst_seconds < 1) {
      return Status::InvalidArgument(
          "bursty arrivals need burst_count >= 1 and burst_seconds >= 1");
    }
  }
  if (burst_fraction < 0.0 || burst_fraction > 1.0) {
    return Status::InvalidArgument("burst_fraction must be in [0, 1]");
  }
  if (origin_zipf_s < 0.0) {
    return Status::InvalidArgument("origin_zipf_s must be >= 0");
  }
  if (mean_trips_per_entity < 1.0) {
    return Status::InvalidArgument("mean_trips_per_entity must be >= 1");
  }
  if (min_park_seconds < 0) {
    return Status::InvalidArgument("min_park_seconds must be >= 0");
  }
  if (min_trip_len < 1 || max_trip_len < min_trip_len) {
    return Status::InvalidArgument(
        "trip lengths need 1 <= min_trip_len <= max_trip_len");
  }
  if (exit_prob < 0.0 || exit_prob > 1.0) {
    return Status::InvalidArgument("exit_prob must be in [0, 1]");
  }
  return Status::OK();
}

Result<Dataset> GenerateTraffic(const RoadNetwork& network,
                                const TrafficConfig& config) {
  IDREPAIR_RETURN_NOT_OK(config.Validate());
  // Trips must fit the hop budget from their first step.
  std::vector<LocationId> origins;
  for (LocationId o : network.origins()) {
    if (network.HopsToExit(o) + 1 <= config.max_trip_len) origins.push_back(o);
  }
  if (origins.empty()) {
    return Status::InvalidArgument(
        "no origin reaches an exit within max_trip_len locations");
  }

  // Independent child streams per concern, forked in fixed order: changing
  // e.g. the dropout draw count must not perturb routes or arrivals.
  Rng root(config.seed ^ 0x714eb49bad5c9d1dULL);
  Rng arrival_rng = root.Fork();
  Rng route_rng = root.Fork();
  Rng id_rng = root.Fork();
  Rng fleet_rng = root.Fork();
  Rng dropout_rng = root.Fork();
  Rng popularity_rng = root.Fork();

  // Zipf popularity: rank origins by a seeded shuffle, weight 1/(rank+1)^s,
  // then sample by binary search on the cumulative weights (cheaper and
  // draw-stable compared to rebuilding a discrete_distribution per trip).
  std::vector<double> cumulative;
  if (config.origin_zipf_s > 0.0) {
    popularity_rng.Shuffle(origins.begin(), origins.end());
    cumulative.resize(origins.size());
    double total = 0.0;
    for (size_t i = 0; i < origins.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), config.origin_zipf_s);
      cumulative[i] = total;
    }
  }
  auto sample_origin = [&]() -> LocationId {
    if (cumulative.empty()) {
      return origins[route_rng.UniformIndex(origins.size())];
    }
    double u = route_rng.UniformReal(0.0, cumulative.back());
    size_t i = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    return origins[std::min(i, origins.size() - 1)];
  };

  const Timestamp window = config.window_seconds;
  auto sample_arrival = [&]() -> Timestamp {
    switch (config.arrivals) {
      case ArrivalProcess::kUniform:
        return arrival_rng.UniformInt(0, window);
      case ArrivalProcess::kDiurnal: {
        if (!arrival_rng.Bernoulli(config.diurnal_peak_fraction)) {
          return arrival_rng.UniformInt(0, window);
        }
        double center = arrival_rng.Bernoulli(0.5) ? 0.25 : 0.75;
        double ts = std::normal_distribution<double>(
            center * static_cast<double>(window),
            config.diurnal_peak_width * static_cast<double>(window))(
            arrival_rng.engine());
        return std::clamp<Timestamp>(static_cast<Timestamp>(ts), 0, window);
      }
      case ArrivalProcess::kBursty: {
        if (!arrival_rng.Bernoulli(config.burst_fraction)) {
          return arrival_rng.UniformInt(0, window);
        }
        size_t k = arrival_rng.UniformIndex(config.burst_count);
        // Burst centers are evenly spaced; the burst itself is uniform.
        Timestamp center = static_cast<Timestamp>(
            (static_cast<double>(k) + 0.5) * static_cast<double>(window) /
            static_cast<double>(config.burst_count));
        Timestamp start =
            std::max<Timestamp>(0, center - config.burst_seconds / 2);
        return std::min<Timestamp>(
            window, start + arrival_rng.UniformInt(0, config.burst_seconds));
      }
    }
    return 0;  // unreachable
  };

  struct Trip {
    Timestamp arrival;
    LocationId origin;
  };
  std::vector<Trip> trips;
  trips.reserve(config.num_trips);
  for (size_t t = 0; t < config.num_trips; ++t) {
    trips.push_back(Trip{sample_arrival(), sample_origin()});
  }
  std::sort(trips.begin(), trips.end(), [](const Trip& a, const Trip& b) {
    return std::tie(a.arrival, a.origin) < std::tie(b.arrival, b.origin);
  });

  // Fleet churn: vehicles park after a trip and may be re-dispatched for a
  // later one under the same ID once their idle gap has passed — never two
  // overlapping trips for one vehicle, so the ground truth stays physically
  // possible.
  struct ParkedVehicle {
    Timestamp free_at;
    std::string id;
  };
  std::vector<ParkedVehicle> parked;
  double reuse_p = 1.0 - 1.0 / config.mean_trips_per_entity;

  UniqueIdGenerator ids;
  Dataset dataset;
  dataset.graph = network.graph();
  dataset.records.reserve(config.num_trips * config.max_trip_len / 2);
  std::vector<size_t> eligible;
  for (const Trip& trip : trips) {
    std::vector<LocationId> path =
        network.SampleTrip(trip.origin, config.min_trip_len,
                           config.max_trip_len, config.exit_prob, route_rng);
    std::string id;
    if (reuse_p > 0.0 && fleet_rng.Bernoulli(reuse_p)) {
      eligible.clear();
      for (size_t i = 0; i < parked.size(); ++i) {
        if (parked[i].free_at <= trip.arrival) eligible.push_back(i);
      }
      if (!eligible.empty()) {
        size_t pick = eligible[fleet_rng.UniformIndex(eligible.size())];
        id = std::move(parked[pick].id);
        parked.erase(parked.begin() + static_cast<ptrdiff_t>(pick));
      }
    }
    if (id.empty()) id = ids.Next(id_rng);

    Timestamp ts = trip.arrival;
    for (size_t i = 0; i < path.size(); ++i) {
      if (i > 0) ts += network.SampleTravelSeconds(path[i - 1], path[i], route_rng);
      bool dropped = network.InDropoutRegion(path[i]) &&
                     dropout_rng.Bernoulli(network.dropout_miss_rate());
      if (!dropped) {
        dataset.records.push_back(GroundTruthRecord{id, id, path[i], ts});
      }
    }
    parked.push_back(ParkedVehicle{ts + config.min_park_seconds, std::move(id)});
  }
  dataset.SortChronological();
  return dataset;
}

}  // namespace idrepair

#ifndef IDREPAIR_GEN_TRAFFIC_MODEL_H_
#define IDREPAIR_GEN_TRAFFIC_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "gen/dataset.h"
#include "gen/road_network.h"

namespace idrepair {

/// When trips enter the network over the observation window.
enum class ArrivalProcess {
  /// Uniform over the window (the paper's §6.1.1 model).
  kUniform,
  /// Two rush-hour peaks (centered at 25% and 75% of the window) over a
  /// uniform base load.
  kDiurnal,
  /// A handful of short bursts holding most of the traffic — incident
  /// shockwaves; the shape that stresses streaming watermarks and LIG time
  /// bins.
  kBursty,
};

/// Temporal/popularity structure of a city-scale workload.
struct TrafficConfig {
  /// Trips to sample (one trip = one pass entrance -> exit).
  size_t num_trips = 400;

  /// Observation window in seconds.
  Timestamp window_seconds = 7200;

  ArrivalProcess arrivals = ArrivalProcess::kUniform;

  /// kDiurnal: fraction of trips inside the two rush peaks, and peak
  /// standard deviation as a fraction of the window.
  double diurnal_peak_fraction = 0.7;
  double diurnal_peak_width = 0.06;

  /// kBursty: burst_count bursts of burst_seconds each, holding
  /// burst_fraction of all trips (the rest arrive uniformly).
  size_t burst_count = 6;
  Timestamp burst_seconds = 180;
  double burst_fraction = 0.8;

  /// Zipf exponent of trip-origin popularity: weight of the i-th most
  /// popular origin is 1/(i+1)^s over a seed-shuffled ranking. 0 = uniform
  /// (every origin equally busy); 1+ = a few arterial gates dominate.
  double origin_zipf_s = 0.0;

  /// Fleet churn: expected trips per vehicle over the window. 1 = every
  /// trip is a fresh vehicle (maximum churn, the paper's model); larger
  /// values re-dispatch parked vehicles for later trips under the same ID,
  /// so one observed ID groups multiple well-separated passes.
  double mean_trips_per_entity = 1.0;

  /// Minimum idle seconds between two trips of the same vehicle.
  Timestamp min_park_seconds = 600;

  /// Trip length bounds in locations (max should not exceed repair θ) and
  /// the per-visit stop probability once a trip stands on an exit.
  size_t min_trip_len = 2;
  size_t max_trip_len = 8;
  double exit_prob = 0.5;

  /// Seeds every draw; same network + config = byte-identical dataset.
  uint64_t seed = 1;

  Status Validate() const;
};

/// Samples a clean (error-free) labeled dataset of `config.num_trips` trips
/// over `network`: guided random-walk valid paths, unique 7–9 letter IDs,
/// per-edge travel times, arrivals per the configured process, origin
/// popularity per the Zipf knob, and camera-dropout record removal per the
/// network's dropout regions. Records come back chronologically sorted with
/// observed == true IDs; feed them to gen/adversarial.h or InjectIdErrors
/// for corruption.
Result<Dataset> GenerateTraffic(const RoadNetwork& network,
                                const TrafficConfig& config);

}  // namespace idrepair

#endif  // IDREPAIR_GEN_TRAFFIC_MODEL_H_

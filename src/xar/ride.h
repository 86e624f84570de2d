#ifndef XAR_XAR_RIDE_H_
#define XAR_XAR_RIDE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "geo/latlng.h"
#include "graph/path.h"

namespace xar {

/// A ride offer as submitted by a driver.
struct RideOffer {
  LatLng source;
  LatLng destination;
  double departure_time_s = 0.0;  ///< seconds since midnight
  int seats = -1;                 ///< shareable seats; -1 = system default
  double detour_limit_m = -1.0;   ///< -1 = system default
};

/// A ride request as submitted by a commuter (paper Section VII).
struct RideRequest {
  RequestId id;
  LatLng source;
  LatLng destination;
  double earliest_departure_s = 0.0;  ///< departure window start
  double latest_departure_s = 0.0;    ///< departure window end
  double walk_limit_m = -1.0;         ///< -1 = system default
  int seats = 1;
};

/// A location through which a ride must pass: the driver's own endpoints
/// plus every booked rider's pickup/drop-off (paper entity 6; distinct from
/// route way-points).
struct ViaPoint {
  NodeId node;
  double eta_s = 0.0;            ///< estimated arrival time
  RequestId request;             ///< booking that created it (invalid for
                                 ///< the ride's own source/destination)
  bool is_pickup = false;
};

/// Internal state of a ride in the system (paper Section VI entity list).
struct Ride {
  RideId id;
  NodeId source;
  NodeId destination;
  double departure_time_s = 0.0;
  int seats_total = 0;
  int seats_available = 0;
  double detour_limit_m = 0.0;  ///< original driver budget
  double detour_used_m = 0.0;   ///< spent by accepted bookings

  /// Ordered via-points, always including source (front) and destination
  /// (back). Segment i runs between via_points[i] and via_points[i+1].
  std::vector<ViaPoint> via_points;

  /// Current full route through the road network.
  Path route;
  /// Cumulative driving time (s) and distance (m) at each route node.
  std::vector<double> route_cum_time_s;
  std::vector<double> route_cum_dist_m;
  /// Index into route.nodes for each via-point.
  std::vector<std::size_t> via_route_index;

  bool active = true;

  double RemainingDetourBudget() const {
    return detour_limit_m - detour_used_m;
  }
  double ArrivalTimeS() const {
    return departure_time_s + (route_cum_time_s.empty()
                                   ? 0.0
                                   : route_cum_time_s.back());
  }
  std::size_t NumSegments() const {
    return via_points.size() < 2 ? 0 : via_points.size() - 1;
  }
};

/// One feasible match returned by Search.
struct RideMatch {
  RideId ride;
  double walk_source_m = 0.0;    ///< requester walk to the pickup landmark
  double walk_dest_m = 0.0;      ///< walk from the drop-off landmark
  double eta_source_s = 0.0;     ///< ride's ETA at the pickup cluster
  double eta_dest_s = 0.0;       ///< ride's ETA at the drop-off cluster
  double detour_estimate_m = 0.0;///< cluster-level detour estimate
  ClusterId source_cluster;
  ClusterId dest_cluster;
  LandmarkId pickup_landmark;
  LandmarkId dropoff_landmark;
  /// Discretization epoch the match was computed on. Cluster/landmark ids
  /// are only meaningful within their epoch, so Book rejects the match as
  /// stale if the system has refreshed past it.
  std::uint64_t epoch = 0;

  double TotalWalkM() const { return walk_source_m + walk_dest_m; }
};

/// The ranking of Search results: least total walking, ties by ride id,
/// then one ride's meeting-point matches by pickup walk, pickup ETA and the
/// two clusters. A strict total order on one search's matches (a ride
/// yields at most one match per cluster pair), so every sort of them —
/// per shard or merged across shards — agrees.
inline bool MatchRankLess(const RideMatch& a, const RideMatch& b) {
  if (a.TotalWalkM() != b.TotalWalkM()) return a.TotalWalkM() < b.TotalWalkM();
  if (a.ride != b.ride) return a.ride < b.ride;
  if (a.walk_source_m != b.walk_source_m)
    return a.walk_source_m < b.walk_source_m;
  if (a.eta_source_s != b.eta_source_s) return a.eta_source_s < b.eta_source_s;
  if (a.source_cluster != b.source_cluster)
    return a.source_cluster < b.source_cluster;
  return a.dest_cluster < b.dest_cluster;
}

/// Outcome of a confirmed booking.
struct BookingRecord {
  RequestId request;
  RideId ride;
  int seats = 1;
  NodeId pickup_node;
  NodeId dropoff_node;
  double actual_detour_m = 0.0;     ///< exact route-length increase
  double estimated_detour_m = 0.0;  ///< the search-time cluster estimate
  double budget_before_m = 0.0;     ///< ride's remaining detour budget when
                                    ///< the booking was accepted
  double walk_m = 0.0;              ///< total rider walking
  double pickup_eta_s = 0.0;
  double dropoff_eta_s = 0.0;
  std::size_t shortest_path_computations = 0;  ///< paper bound: <= 4
};

}  // namespace xar

#endif  // XAR_XAR_RIDE_H_

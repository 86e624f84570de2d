#ifndef XAR_XAR_ROUTE_UTILS_H_
#define XAR_XAR_ROUTE_UTILS_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "graph/oracle.h"
#include "graph/path.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "xar/ride.h"

namespace xar {

/// Fills cumulative driving time/distance profiles along `nodes`:
/// cum_time_s[i] / cum_dist_m[i] is the total time/distance from nodes[0] to
/// nodes[i] taking, at each hop, the best drivable edge between consecutive
/// nodes. Every consecutive pair must be connected by a drivable edge.
void BuildCumulativeProfiles(const RoadGraph& graph,
                             const std::vector<NodeId>& nodes,
                             std::vector<double>* cum_time_s,
                             std::vector<double>* cum_dist_m);

/// Appends `piece` to `route`, dropping the duplicated junction node when
/// `piece` starts where `route` currently ends.
void AppendPathNodes(std::vector<NodeId>* route,
                     const std::vector<NodeId>& piece);

/// One via-point of a rewritten route, with its position in the ride's
/// current via list (`kNewStop` for a via the ride does not have yet).
struct RouteStop {
  static constexpr std::size_t kNewStop =
      std::numeric_limits<std::size_t>::max();

  ViaPoint via;  ///< its eta_s is recomputed by the rewrite
  std::size_t was = kNewStop;
};

/// A ride's route re-threaded through a new via list, not yet committed.
/// The totals are the profiles' (bit-equal to an oracle Path's own totals,
/// which sum the same best drivable edges in the same order).
struct RouteRewrite {
  Path route;
  std::vector<double> cum_time_s;
  std::vector<double> cum_dist_m;
  std::vector<ViaPoint> via_points;  ///< the stops' vias, ETAs filled
  std::vector<std::size_t> via_route_index;
  std::size_t shortest_paths = 0;  ///< DriveRoute calls made
};

/// Re-threads `ride` through `stops` (its source first, its destination
/// last), the one way every caller changes a route: booking splice, cancel,
/// kinetic plan, refresh and ride creation. A leg between two stops that
/// sit at adjacent positions of the current via list follows the current
/// route's node span between them; every other leg is one DriveRoute
/// (none when both ends share a node). Returns nullopt on an unreachable
/// leg. `ride` is only read.
std::optional<RouteRewrite> RewriteRoute(const RoadGraph& graph,
                                         DistanceOracle& oracle,
                                         const Ride& ride,
                                         const std::vector<RouteStop>& stops);

/// Installs `rewrite` as `ride`'s route, profiles and via list.
void CommitRoute(RouteRewrite&& rewrite, Ride* ride);

/// A new ride for `offer`, its route one DriveRoute between the nodes
/// nearest its endpoints. The defaults fill an offer's unset seats and
/// detour limit; the caller assigns the id.
Result<Ride> PlanRide(const RoadGraph& graph, const SpatialNodeIndex& spatial,
                      DistanceOracle& oracle, const RideOffer& offer,
                      int default_seats, double default_detour_limit_m);

/// The record of `request`'s booking on `booked` (already committed), whose
/// route was `old_length_m` long and whose remaining detour budget was
/// `budget_before_m` before it. The search-side estimate and walk are left
/// to the caller.
BookingRecord MakeBookingRecord(const Ride& booked, const RideRequest& request,
                                double old_length_m, double budget_before_m,
                                std::size_t shortest_paths);

/// The paper's booking splice (Section VIII-B): `request`'s pickup goes in
/// after via `s` and its drop-off after via `d` (s <= d), only the legs
/// touching them are routed afresh (at most four shortest paths), and the
/// result is committed with its seats and the detour it adds charged.
/// Returns the booking's record (estimate and walk are the caller's), or an
/// Internal error with `ride` untouched when a leg is unreachable.
Result<BookingRecord> SpliceRider(const RoadGraph& graph,
                                  DistanceOracle& oracle, Ride* ride,
                                  std::size_t s, std::size_t d, NodeId pickup,
                                  NodeId dropoff, const RideRequest& request);

}  // namespace xar

#endif  // XAR_XAR_ROUTE_UTILS_H_

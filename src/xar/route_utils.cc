#include "xar/route_utils.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace xar {

void BuildCumulativeProfiles(const RoadGraph& graph,
                             const std::vector<NodeId>& nodes,
                             std::vector<double>* cum_time_s,
                             std::vector<double>* cum_dist_m) {
  cum_time_s->assign(nodes.size(), 0.0);
  cum_dist_m->assign(nodes.size(), 0.0);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const RoadEdge* best = nullptr;
    for (const RoadEdge& e : graph.OutEdges(nodes[i])) {
      if (!e.drivable || e.to != nodes[i + 1]) continue;
      if (best == nullptr || e.length_m < best->length_m) best = &e;
    }
    assert(best != nullptr && "route hop is not a drivable edge");
    (*cum_time_s)[i + 1] = (*cum_time_s)[i] + best->time_s;
    (*cum_dist_m)[i + 1] = (*cum_dist_m)[i] + best->length_m;
  }
}

void AppendPathNodes(std::vector<NodeId>* route,
                     const std::vector<NodeId>& piece) {
  std::size_t start = 0;
  if (!route->empty() && !piece.empty() && route->back() == piece.front()) {
    start = 1;
  }
  route->insert(route->end(), piece.begin() + static_cast<std::ptrdiff_t>(start),
                piece.end());
}

std::optional<RouteRewrite> RewriteRoute(const RoadGraph& graph,
                                         DistanceOracle& oracle,
                                         const Ride& ride,
                                         const std::vector<RouteStop>& stops) {
  RouteRewrite out;
  std::vector<NodeId>& nodes = out.route.nodes;
  out.via_route_index.reserve(stops.size());
  for (std::size_t i = 0; i < stops.size(); ++i) {
    const RouteStop& stop = stops[i];
    if (i == 0) {
      nodes.push_back(stop.via.node);
    } else if (const std::size_t from = stops[i - 1].was;
               from != RouteStop::kNewStop && stop.was == from + 1) {
      // Follow the current route's span between the two vias.
      for (std::size_t r = ride.via_route_index[from];
           r <= ride.via_route_index[stop.was]; ++r) {
        if (ride.route.nodes[r] != nodes.back()) {
          nodes.push_back(ride.route.nodes[r]);
        }
      }
    } else if (stop.via.node != nodes.back()) {
      ++out.shortest_paths;
      Path leg = oracle.DriveRoute(nodes.back(), stop.via.node);
      if (!leg.Found()) return std::nullopt;
      AppendPathNodes(&nodes, leg.nodes);
    }
    out.via_route_index.push_back(nodes.size() - 1);
  }
  BuildCumulativeProfiles(graph, nodes, &out.cum_time_s, &out.cum_dist_m);
  out.route.length_m = out.cum_dist_m.back();
  out.route.time_s = out.cum_time_s.back();
  out.via_points.reserve(stops.size());
  for (std::size_t i = 0; i < stops.size(); ++i) {
    out.via_points.push_back(stops[i].via);
    out.via_points.back().eta_s =
        ride.departure_time_s + out.cum_time_s[out.via_route_index[i]];
  }
  return out;
}

void CommitRoute(RouteRewrite&& rewrite, Ride* ride) {
  ride->route = std::move(rewrite.route);
  ride->route_cum_time_s = std::move(rewrite.cum_time_s);
  ride->route_cum_dist_m = std::move(rewrite.cum_dist_m);
  ride->via_points = std::move(rewrite.via_points);
  ride->via_route_index = std::move(rewrite.via_route_index);
}

Result<Ride> PlanRide(const RoadGraph& graph, const SpatialNodeIndex& spatial,
                      DistanceOracle& oracle, const RideOffer& offer,
                      int default_seats, double default_detour_limit_m) {
  Ride ride;
  ride.source = spatial.NearestNode(offer.source);
  ride.destination = spatial.NearestNode(offer.destination);
  if (ride.source == ride.destination) {
    return Status::InvalidArgument("ride source and destination coincide");
  }
  ride.departure_time_s = offer.departure_time_s;
  ride.seats_total = offer.seats >= 0 ? offer.seats : default_seats;
  ride.seats_available = ride.seats_total;
  ride.detour_limit_m =
      offer.detour_limit_m >= 0 ? offer.detour_limit_m : default_detour_limit_m;
  std::optional<RouteRewrite> route = RewriteRoute(
      graph, oracle, ride,
      {{ViaPoint{ride.source, 0.0, RequestId::Invalid(), false}},
       {ViaPoint{ride.destination, 0.0, RequestId::Invalid(), false}}});
  if (!route) {
    return Status::NotFound("no drivable route between offer endpoints");
  }
  CommitRoute(std::move(*route), &ride);
  return ride;
}

BookingRecord MakeBookingRecord(const Ride& booked, const RideRequest& request,
                                double old_length_m, double budget_before_m,
                                std::size_t shortest_paths) {
  BookingRecord record;
  record.request = request.id;
  record.ride = booked.id;
  record.seats = request.seats;
  record.actual_detour_m = std::max(0.0, booked.route.length_m - old_length_m);
  record.budget_before_m = budget_before_m;
  record.shortest_path_computations = shortest_paths;
  for (const ViaPoint& vp : booked.via_points) {
    if (vp.request != request.id) continue;
    (vp.is_pickup ? record.pickup_node : record.dropoff_node) = vp.node;
    (vp.is_pickup ? record.pickup_eta_s : record.dropoff_eta_s) = vp.eta_s;
  }
  return record;
}

Result<BookingRecord> SpliceRider(const RoadGraph& graph,
                                  DistanceOracle& oracle, Ride* ride,
                                  std::size_t s, std::size_t d, NodeId pickup,
                                  NodeId dropoff, const RideRequest& request) {
  std::vector<RouteStop> stops;
  stops.reserve(ride->via_points.size() + 2);
  for (std::size_t v = 0; v < ride->via_points.size(); ++v) {
    stops.push_back({ride->via_points[v], v});
    if (v == s) stops.push_back({ViaPoint{pickup, 0.0, request.id, true}});
    if (v == d) stops.push_back({ViaPoint{dropoff, 0.0, request.id, false}});
  }
  std::optional<RouteRewrite> rewrite =
      RewriteRoute(graph, oracle, *ride, stops);
  if (!rewrite) {
    return Status::Internal("booking splice found an unreachable leg");
  }
  const std::size_t shortest_paths = rewrite->shortest_paths;
  assert(shortest_paths <= 4);
  const double old_length = ride->route.length_m;
  const double budget_before = ride->RemainingDetourBudget();
  CommitRoute(std::move(*rewrite), ride);
  ride->detour_used_m += std::max(0.0, ride->route.length_m - old_length);
  ride->seats_available -= request.seats;
  return MakeBookingRecord(*ride, request, old_length, budget_before,
                           shortest_paths);
}

}  // namespace xar
